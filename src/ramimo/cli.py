"""Command-line front end for batch experiments.

Subcommands: simulate, delta-ra, scaling, bounds, quantizer, codebook.
All experiment subcommands take a JSON config (--config) and write
result.json plus curves.csv into --out.
"""

import argparse
import csv
import json
import math
import os
import sys

from . import __version__
from .bounds import bounds_report, measure_worst_case_error, simplex_quantizer
from .codebook import (
    canonical_onb,
    dft_codebook,
    frame_constant,
    load_codebook,
    NotTightFrameError,
    random_unitary,
    rvq_codebook,
    save_codebook,
)
from .harness import (
    SimConfig,
    emit,
    load_config,
    run_delta_ra_experiment,
    run_scaling_experiment,
    run_sum_rate_experiment,
)
from .numerics import SeedSpec


def _add_common(p):
    p.add_argument("--config", help="JSON config file")
    p.add_argument("--seed", type=int, help="override master_seed")
    p.add_argument("--out", default="out", help="output directory")
    p.add_argument("--workers", type=int, help="override worker count")
    p.add_argument("--bits", action="store_true", help="print rates in bits (log2) instead of nats")


def _load_cfg(args):
    cfg = load_config(args.config) if args.config else SimConfig.from_dict({})
    overrides = {}
    if args.seed is not None:
        overrides["master_seed"] = args.seed
    if getattr(args, "workers", None) is not None:
        overrides["workers"] = args.workers
    if overrides:
        cfg = cfg.replace(**overrides)
    return cfg


def _report_rate(value_nats, bits):
    return value_nats / math.log(2.0) if bits else value_nats


def _cmd_simulate(args):
    cfg = _load_cfg(args)
    result = run_sum_rate_experiment(cfg)
    paths = emit(result, args.out)
    unit = "bits" if args.bits else "nats"
    for row in result.tables:
        print(
            f"strategy={row['strategy']} snr={row['snr_db']:g} dB  "
            f"mean sum rate = {_report_rate(row['mean_rate_nats'], args.bits):.4f} {unit}"
        )
    print(f"wrote {paths[0]} and {paths[1]}")
    return 0


def _cmd_delta_ra(args):
    cfg = _load_cfg(args)
    result = run_delta_ra_experiment(cfg)
    paths = emit(result, args.out)
    unit = "bits" if args.bits else "nats"
    for row in result.tables:
        line = (
            f"snr={row['snr_db']:g} dB  gap = {_report_rate(row['delta_ra_nats'], args.bits):.4f} {unit}"
            f" (se {row['stderr_nats']:.4f})"
        )
        if "lemma2_bound_empirical" in row:
            line += f"  bound = {_report_rate(row['lemma2_bound_empirical'], args.bits):.4f} {unit}"
        print(line)
    if "bounds_omitted" in result.metadata:
        print(f"bound columns omitted: {result.metadata['bounds_omitted']}")
    print(f"wrote {paths[0]} and {paths[1]}")
    return 0


def _cmd_scaling(args):
    cfg = _load_cfg(args)
    if args.b_list:
        cfg = cfg.replace(b_list=[int(b) for b in args.b_list.split(",")])
    result = run_scaling_experiment(cfg)
    paths = emit(result, args.out)
    for row in result.tables:
        print(f"B={row['B']}  D_hat = {row['D_hat_est']:.5f}  D = {row['D_est']:.5f}")
    slope = result.metadata.get("log2_slope_d_hat")
    if slope is not None:
        print(f"fitted log2 slope of D_hat: {slope:.3f} (target {result.metadata['target_slope']:.3f})")
    print(f"wrote {paths[0]} and {paths[1]}")
    return 0


def _cmd_bounds(args):
    cfg = _load_cfg(args)
    n_t_list = [int(x) for x in args.n_t_list.split(",")] if args.n_t_list else [cfg.params.n_t]
    b_list = [int(x) for x in args.b_list.split(",")] if args.b_list else [cfg.B]
    if args.snr_list:  # through the config, so its SNR check applies
        cfg = cfg.replace(snr_db_list=[float(x) for x in args.snr_list.split(",")])
    rows = []
    for n_t in n_t_list:
        for B in b_list:
            for snr_db in cfg.snr_db_list:
                rep = bounds_report(n_t, B, cfg.params.with_snr_db(snr_db).P, min(cfg.params.n_s, n_t))
                row = {"snr_db": snr_db, **rep.__dict__}
                rows.append(row)
    os.makedirs(args.out, exist_ok=True)
    jpath = os.path.join(args.out, "bounds.json")
    with open(jpath, "w", encoding="utf-8") as fh:
        json.dump(rows, fh, sort_keys=True, indent=1)
        fh.write("\n")
    cpath = os.path.join(args.out, "bounds.csv")
    cols = [
        "n_t",
        "B",
        "snr_db",
        "n_s",
        "mean_lambda_sq",
        "c_nt",
        "D_bound",
        "lemma2_bound",
        "theorem1_bound",
        "jindal_gap",
        "ra_nt3_gap",
        "validity",
    ]
    with open(cpath, "w", newline="", encoding="utf-8") as fh:
        writer = csv.DictWriter(fh, fieldnames=cols, extrasaction="ignore")
        writer.writeheader()
        for row in rows:
            writer.writerow(row)
    for row in rows:
        c = f"{row['c_nt']:.4f}" if row["c_nt"] is not None else "-"
        print(f"n_t={row['n_t']} B={row['B']} snr={row['snr_db']:g} dB  c={c}  jindal/user={row['jindal_gap']:.4f}")
    print(f"wrote {jpath} and {cpath}")
    return 0


def _cmd_quantizer(args):
    q = simplex_quantizer(args.quant_bits)
    measured = measure_worst_case_error(q, n_probes=args.probes)
    os.makedirs(args.out, exist_ok=True)
    path = os.path.join(args.out, f"simplex_quantizer_B{args.quant_bits}.json")
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(
            {
                "B": q.B,
                "idealized_delta": q.delta,
                "measured_delta": measured,
                "points": q.points.tolist(),
            },
            fh,
            sort_keys=True,
            indent=1,
        )
        fh.write("\n")
    print(f"B={q.B}: {len(q.points)} points, delta {q.delta:.6f}, measured {measured:.6f}")
    print(f"wrote {path}")
    return 0


def _cmd_codebook(args):
    if args.action == "gen":
        seed = SeedSpec(args.seed if args.seed is not None else 12345).derive("cbgen")
        if args.kind == "canonical":
            cb = canonical_onb(args.dim)
        elif args.kind == "dft":
            cb = dft_codebook(args.dim)
        elif args.kind == "random-unitary":
            cb = random_unitary(args.dim, seed)
        elif args.kind == "rvq":
            cb = rvq_codebook(args.dim, args.gen_bits, seed)
        else:
            raise ValueError(args.kind)
        save_codebook(cb, args.path)
        print(f"wrote {cb.size} x {cb.dim} codebook to {args.path}")
        return 0
    cb = load_codebook(args.path)
    print(f"{args.path}: {cb.size} codewords of dimension {cb.dim}")
    try:
        a = frame_constant(cb)
        print(f"tight frame with constant A = {a:g}" + (" (unitary)" if abs(a - 1) < 1e-9 else ""))
    except NotTightFrameError as exc:
        print(f"not a tight frame (max deviation {exc.max_deviation:.3e})")
    return 0


def main(argv=None):
    parser = argparse.ArgumentParser(prog="ramimo", description=__doc__)
    parser.add_argument("--version", action="version", version=f"ramimo {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("simulate", help="sum-rate experiment over the SNR grid")
    _add_common(p)
    p.set_defaults(fn=_cmd_simulate)

    p = sub.add_parser("delta-ra", help="worst-case rate-gap estimate with bounds")
    _add_common(p)
    p.set_defaults(fn=_cmd_delta_ra)

    p = sub.add_parser("scaling", help="quantization-error decay over feedback bits")
    _add_common(p)
    p.add_argument("--b-list", help="comma-separated feedback bit counts, e.g. 4,6,8,10")
    p.set_defaults(fn=_cmd_scaling)

    p = sub.add_parser("bounds", help="closed-form bound tables over (n_t, B, SNR)")
    _add_common(p)
    p.add_argument("--n-t-list", help="comma-separated n_t values")
    p.add_argument("--b-list", help="comma-separated B values")
    p.add_argument("--snr-list", help="comma-separated SNR values in dB")
    p.set_defaults(fn=_cmd_bounds)

    p = sub.add_parser("quantizer", help="simplex quantizer demo (n_t = 3)")
    p.add_argument("--out", default="out")
    p.add_argument("--bits", dest="quant_bits", type=int, default=4, help="feedback bits (even)")
    p.add_argument("--probes", type=int, default=10**6)
    p.set_defaults(fn=_cmd_quantizer)

    p = sub.add_parser("codebook", help="generate or check codebook files")
    p.add_argument("action", choices=["gen", "check"])
    p.add_argument("path")
    p.add_argument("--kind", default="dft", choices=["canonical", "dft", "random-unitary", "rvq"])
    p.add_argument("--dim", type=int, default=4)
    p.add_argument("--bits", dest="gen_bits", type=int, default=4, help="bits for rvq generation")
    p.add_argument("--seed", type=int)
    p.set_defaults(fn=_cmd_codebook)

    args = parser.parse_args(argv)
    try:
        return args.fn(args)
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
