#!/usr/bin/env python3
"""ramimo benchmark: Monte Carlo draw throughput and result quality, end to end
and per layer.

    python3 perfbench/run.py --workload sumrate-rafull --seed 7 --seconds 30 --trace 0
    python3 perfbench/run.py --workload all          # every workload, default seeds
    python3 perfbench/run.py --smoke                 # short self-check of the benchmark
    python3 perfbench/run.py --write-reference       # re-record reference.json

A run is batch and closed-loop: one ``run_*_experiment`` call at a time, in
this process, with ``workers=1`` and one BLAS thread.  Calls of about one
second cycle over the workload's configs (master seeds derived from --seed)
until --seconds have passed; a rerun of a config must write a byte-identical
result.json.  ``--trace 0`` reports the end-to-end metrics; ``--trace 1``
alternates untraced and traced calls and reports the per-layer metrics.  The
last line of standard output is one JSON object: correct, attempted, failed,
metrics.  See perfbench/README.md for the metric map and what the benchmark
leaves out.
"""

import os

# Pin BLAS to one thread before numpy loads: the runs are single-process
# and the machine's cores are shared.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import json
import math
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

from spans import LAYER_UNITS, ROOT_SPAN, Tracer, check_spans, instrument, layer_metrics
from workloads import ROOT, WORKLOADS, import_ramimo, make_config, run_experiment

HERE = Path(__file__).resolve().parent
REFERENCE = HERE / "reference.json"
SETUP_REPS = 5
REFERENCE_DRAWS = 16
SEED_STRIDE = 2**32

E2E_UNITS = {
    "draws_per_s": "1/s",
    "setup_s": "s",
    "peak_rss_mb": "MB",
    "good_draw_frac": "ratio",
    "rate_gap_nats": "nats",
}


# ---------------------------------------------------------------------------
# machine record
# ---------------------------------------------------------------------------


def calibration_s():
    """Median time of a fixed kernel mixing small numpy calls and Python
    arithmetic, like a draw does.  Recorded to tell machine drift from a
    code change; never used to normalize a metric."""
    import numpy as np

    a = np.random.default_rng(0).standard_normal((64, 4)) + 0j

    def kernel():
        acc = 0.0
        for i in range(3000):
            acc += float(np.log1p(np.abs(a[i % 64] @ a[(i + 1) % 64].conj()) ** 2))
        for i in range(200_000):
            acc += i * 0.5
        return acc

    times = []
    for _ in range(3):
        t0 = time.perf_counter()
        kernel()
        times.append(time.perf_counter() - t0)
    return statistics.median(times)


def machine_record():
    import numpy
    import scipy

    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": os.environ["OPENBLAS_NUM_THREADS"],
        "loadavg_start": os.getloadavg(),
        "calibration_s_start": calibration_s(),
    }


# ---------------------------------------------------------------------------
# measurement
# ---------------------------------------------------------------------------


def setup_seconds(name, seed, reps):
    """Median wall time of `reps` fresh interpreters each running one draw."""
    times = []
    for _ in range(reps):
        t0 = time.perf_counter()
        subprocess.run(
            [sys.executable, str(HERE / "probe.py"), "--workload", name, "--seed", str(seed)],
            cwd=ROOT,
            stdout=subprocess.DEVNULL,
            check=True,
            timeout=120,
        )
        times.append(time.perf_counter() - t0)
    return statistics.median(times)


def per_draw(result):
    return result.draws["gap_samples_nats" if result.kind == "delta-ra" else "sum_rate_nats"]


class Calls:
    """Runs a workload's configs repeatedly and applies the correctness gates.

    A draw fails when its output is missing, not finite or negative, or
    differs from the first call of the same config (a rerun with the same
    seed, traced or not, must give a byte-identical result.json).  When
    result.json differs but every draw matches, every draw of that call fails.
    """

    def __init__(self, harness, name, cfgs, out_dir):
        self.harness, self.name, self.cfgs, self.out_dir = harness, name, cfgs, out_dir
        self.first = {}  # config index -> (result.json bytes, per-draw rows)
        self.attempted = 0
        self.failed = 0
        self.reruns = 0
        self.mismatched_calls = 0

    def call(self, k, tracer=None):
        cfg = self.cfgs[k]
        if tracer is None:
            t0 = time.perf_counter()
            result = run_experiment(self.harness, self.name, cfg)
            dt = time.perf_counter() - t0
        else:
            with instrument(tracer):
                t0 = time.perf_counter()
                result = tracer.span(ROOT_SPAN, run_experiment, self.harness, self.name, cfg)
                dt = time.perf_counter() - t0
        json_path, _ = self.harness.emit(result, self.out_dir)
        self._gate(k, Path(json_path).read_bytes(), per_draw(result))
        return dt, result

    def _gate(self, k, data, rows):
        n = self.cfgs[k].num_draws
        bad = {i for i in range(n) if i >= len(rows) or not all(math.isfinite(v) and v >= 0 for v in rows[i])}
        if k not in self.first:
            self.first[k] = (data, rows)
        else:
            self.reruns += 1
            if data != self.first[k][0]:
                self.mismatched_calls += 1
                ref = self.first[k][1]
                differ = {i for i in range(n) if i >= len(rows) or i >= len(ref) or rows[i] != ref[i]}
                bad |= differ or set(range(n))
        self.attempted += n
        self.failed += len(bad)


def keep_going(n_done, n_min, t_start, seconds, durations):
    """Start another call only while it is expected to end within `seconds`."""
    if n_done < n_min:
        return True
    return time.perf_counter() - t_start + statistics.median(durations) <= seconds


def mean(values):
    return math.fsum(values) / len(values)


def quality(results, perfects):
    """Deterministic result-quality values over the draws of `results`."""
    rows = [row for res in results for row in per_draw(res)]
    if results[0].kind == "delta-ra":
        snrs = results[0].config["snr_db_list"]
        top = mean([row[-1] for row in rows])
        q = {"ra_gap_nats": top, "rate_gap_nats": top}
        if 20.0 in snrs:
            q["ra_gap_growth"] = top / mean([row[snrs.index(20.0)] for row in rows])
        return q
    q = {"sum_rate_nats": mean([row[0] for row in rows])}
    if perfects:
        q["perfect_sum_rate_nats"] = mean([row[0] for res in perfects for row in per_draw(res)])
        q["rate_gap_nats"] = q["perfect_sum_rate_nats"] - q["sum_rate_nats"]
    return q


def reference_delta(harness, name):
    """Max per-draw |delta| against the outputs recorded at the seed commit
    (reference.json).  A diagnostic only: solver fixes move it on purpose."""
    if not REFERENCE.is_file():
        return None
    ref = json.loads(REFERENCE.read_text())[name]
    cfg = make_config(harness, name, ref["seed"], ref["num_draws"])
    rows = per_draw(run_experiment(harness, name, cfg))
    if len(rows) != len(ref["draws"]) or any(len(a) != len(b) for a, b in zip(rows, ref["draws"])):
        return float("nan")
    return max(abs(a - b) for ra, rb in zip(rows, ref["draws"]) for a, b in zip(ra, rb))


def measure(harness, name, seed, seconds, trace, draws, passes, setup_reps, out_dir):
    """One benchmark run; returns (result line dict, diagnostics dict).

    Config k of the `passes` configs runs master seed ``seed + k * SEED_STRIDE``
    with `draws` draws, so config 0 is the pinned experiment at --seed.
    Untraced: one pass over every config gives the quality values, then
    calls cycle over the configs again (reruns) until `seconds` have passed.
    Traced: (untraced, traced) pairs of one config cycle the same way.
    """
    w = WORKLOADS[name]
    diag = {"workload": name, "seed": seed, "seconds": seconds, "trace": trace,
            "draws_per_call": draws, "configs": passes}
    machine = machine_record()
    if not trace:
        setup_s = setup_seconds(name, seed, setup_reps)
    # warm-up: fills the configuration cache and lazy imports before timing
    run_experiment(harness, name, make_config(harness, name, seed, 1))

    cfgs = [make_config(harness, name, seed + k * SEED_STRIDE, draws) for k in range(passes)]
    calls = Calls(harness, name, cfgs, out_dir)
    plain, traced, durations, first_pass, layer_runs, span_problems = [], [], [], [], [], []
    n_min = 2 if trace else passes + 1
    t_start = time.perf_counter()
    while keep_going(len(durations), n_min, t_start, seconds, durations):
        k = len(durations) % passes
        dt, result = calls.call(k)
        plain.append(dt)
        if len(durations) < passes:
            first_pass.append(result)
        if trace:
            tracer = Tracer()
            dt_traced, _ = calls.call(k, tracer)
            traced.append(dt_traced)
            span_problems += check_spans(tracer.spans)
            layer_runs.append(layer_metrics(tracer))
            dt += dt_traced
        durations.append(dt)
    if not trace:
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    perfects = []
    if not trace and w["kind"] == "sum-rate":
        perfects = [run_experiment(harness, name, cfg.replace(strategy="perfect")) for cfg in cfgs]
    q = quality(first_pass, perfects)
    diag["calls"] = {"n": len(plain), "median_s": statistics.median(plain), "max_s": max(plain),
                     "untraced_s": plain, "traced_s": traced}
    diag["gates"] = {
        "reruns": calls.reruns,
        "mismatched_calls": calls.mismatched_calls,
        "span_problems": span_problems[:5],
    }
    diag["quality"] = {"draws": len(first_pass) * draws, **q}
    diag["reference_max_abs_delta"] = reference_delta(harness, name)
    machine["loadavg_end"] = os.getloadavg()
    machine["calibration_s_end"] = calibration_s()
    diag["machine"] = machine

    if not trace:
        metrics = {
            "draws_per_s": draws * len(plain) / math.fsum(plain),
            "setup_s": setup_s,
            "peak_rss_mb": peak_rss_mb,
            "good_draw_frac": 1.0 - calls.failed / calls.attempted,
            "rate_gap_nats": q["rate_gap_nats"],
        }
        units = E2E_UNITS
    else:
        metrics = {k: statistics.median(run[k] for run in layer_runs) for k in layer_runs[0]}
        metrics["harness.trace_overhead_frac"] = statistics.median(t / p for t, p in zip(traced, plain)) - 1.0
        units = LAYER_UNITS
    line = {
        "correct": calls.failed == 0 and not span_problems,
        "attempted": calls.attempted,
        "failed": calls.failed,
        "metrics": {k: {"value": metrics[k], "unit": units[k]} for k in units},
    }
    return line, diag


# ---------------------------------------------------------------------------
# entry points
# ---------------------------------------------------------------------------


def print_run(line, diag):
    print(f"perfbench {diag['workload']} seed={diag['seed']} seconds={diag['seconds']} trace={diag['trace']}")
    for key in ("machine", "calls", "gates", "quality"):
        print(f"{key}: {json.dumps(diag[key])}")
    print(f"reference: max per-draw |delta| vs seed-commit outputs = {diag['reference_max_abs_delta']}")
    print(f"draws: attempted {line['attempted']}, failed {line['failed']}, "
          f"failed_draw_frac = {line['failed'] / line['attempted']:g}")
    for k, v in line["metrics"].items():
        print(f"metric {k} = {v['value']:.6g} {v['unit']}")
    print(json.dumps(line))


def run_all(args):
    """Each workload in its own process, so peak RSS is per workload."""
    ok = True
    summary = {}
    for name in WORKLOADS:
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
               "--seconds", str(args.seconds), "--trace", str(args.trace)]
        if args.seed is not None:
            cmd += ["--seed", str(args.seed)]
        proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True, timeout=600)
        sys.stdout.write(proc.stdout)
        if proc.returncode != 0:
            return proc.returncode
        line = json.loads(proc.stdout.strip().splitlines()[-1])
        ok = ok and line["correct"]
        summary[name] = line
    print("summary:")
    for name, line in summary.items():
        vals = ", ".join(f"{k}={v['value']:.4g} {v['unit']}" for k, v in line["metrics"].items())
        print(f"  {name}: failed_draw_frac={line['failed'] / line['attempted']:g}; {vals}")
    return 0 if ok else 1


def smoke(harness, out_dir):
    """Short self-check: every named metric emitted with its unit, spans
    nested inside their parents, self times >= 0, all gates passing."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    want = {0: {m["name"]: m["unit"] for m in spec["end_to_end"]},
            1: {m["name"]: m["unit"] for m in spec["per_layer"]}}
    problems = []
    for name in WORKLOADS:
        seed = WORKLOADS[name]["default_seed"]
        for trace in (0, 1):
            line, diag = measure(harness, name, seed, 0.0, trace, 3, 2, 1, out_dir)
            got = {k: v["unit"] for k, v in line["metrics"].items()}
            if got != want[trace]:
                problems.append(f"{name} trace={trace}: metrics {sorted(set(got.items()) ^ set(want[trace].items()))}")
            if not all(math.isfinite(v["value"]) for v in line["metrics"].values()):
                problems.append(f"{name} trace={trace}: non-finite metric")
            if not line["correct"]:
                problems.append(f"{name} trace={trace}: not correct: {diag['gates']}")
            print(f"smoke {name} trace={trace}: {len(got)} metrics, gates {diag['gates']}")
    for p in problems:
        print("smoke FAIL:", p)
    print("smoke:", "FAIL" if problems else "ok")
    return 1 if problems else 0


def write_reference(harness):
    ref = {}
    for name, w in WORKLOADS.items():
        cfg = make_config(harness, name, w["default_seed"], REFERENCE_DRAWS)
        ref[name] = {"seed": w["default_seed"], "num_draws": REFERENCE_DRAWS,
                     "draws": per_draw(run_experiment(harness, name, cfg))}
    REFERENCE.write_text(json.dumps(ref, indent=1) + "\n")
    print(f"wrote {REFERENCE}")
    return 0


def main():
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", choices=sorted(WORKLOADS) + ["all"], default="all")
    ap.add_argument("--seed", type=int, help="master seed (default: the workload's pinned seed)")
    ap.add_argument("--seconds", type=float, default=30.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--smoke", action="store_true")
    ap.add_argument("--write-reference", action="store_true")
    args = ap.parse_args()
    harness = import_ramimo()
    if args.write_reference:
        return write_reference(harness)
    if args.workload == "all" and not args.smoke:
        return run_all(args)
    out_dir = HERE / f".run-{os.getpid()}"
    try:
        if args.smoke:
            return smoke(harness, out_dir)
        name = args.workload
        seed = WORKLOADS[name]["default_seed"] if args.seed is None else args.seed
        w = WORKLOADS[name]
        line, diag = measure(harness, name, seed, args.seconds, args.trace, w["draws"], w["passes"],
                             SETUP_REPS, out_dir)
        print_run(line, diag)
        return 0
    finally:
        shutil.rmtree(out_dir, ignore_errors=True)


if __name__ == "__main__":
    sys.exit(main())
