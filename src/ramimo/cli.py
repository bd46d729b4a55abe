"""Command-line front end for batch experiments.

Subcommands: simulate, delta-ra, scaling, bounds, quantizer, codebook.
All experiment subcommands take a JSON config (--config) and write
result.json plus curves.csv into --out.
"""

import argparse
import math
import sys
from dataclasses import fields

from . import __version__
from .bounds import BoundsReport, bounds_report, measure_worst_case_error, simplex_quantizer
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
    write_csv,
    write_json,
)
from .numerics import SeedSpec

_BOUNDS_COLUMNS = [f.name for f in fields(BoundsReport)]
_BOUNDS_COLUMNS.insert(_BOUNDS_COLUMNS.index("B") + 1, "snr_db")

# codebook gen --kind -> the codebook, from the parsed arguments and the seed
_CODEBOOK_KINDS = {
    "canonical": lambda args, seed: canonical_onb(args.dim),
    "dft": lambda args, seed: dft_codebook(args.dim),
    "random-unitary": lambda args, seed: random_unitary(args.dim, seed),
    "rvq": lambda args, seed: rvq_codebook(args.dim, args.gen_bits, seed),
}


def _load_cfg(args):
    return load_config(args.config) if args.config else SimConfig.from_dict({})


def _sum_rate_lines(result, value, unit):
    for row in result.tables:
        rate = value(row["mean_rate_nats"])
        yield f"strategy={row['strategy']} snr={row['snr_db']:g} dB  mean sum rate = {rate} {unit}"


def _delta_ra_lines(result, value, unit):
    for row in result.tables:
        line = f"snr={row['snr_db']:g} dB  gap = {value(row['delta_ra_nats'])} {unit} (se {value(row['stderr_nats'])})"
        if "lemma2_bound_empirical" in row:
            line += f"  bound = {value(row['lemma2_bound_empirical'])} {unit}"
        yield line
    if "bounds_omitted" in result.metadata:
        yield f"bound columns omitted: {result.metadata['bounds_omitted']}"


def _scaling_lines(result, value, unit):
    for row in result.tables:
        yield f"B={row['B']}  D_hat = {row['D_hat_est']:.5f}  D = {row['D_est']:.5f}"
    slope = result.metadata.get("log2_slope_d_hat")
    if slope is not None:
        yield f"fitted log2 slope of D_hat: {slope:.3f} (target {result.metadata['target_slope']:.3f})"


# (subcommand, help, experiment, summary lines of its result); scaling
# runs in one process and reports no rates, so it takes --b-list in place
# of --workers and --bits
_EXPERIMENTS = (
    ("simulate", "sum-rate experiment over the SNR grid", run_sum_rate_experiment, _sum_rate_lines),
    ("delta-ra", "worst-case rate-gap estimate with bounds", run_delta_ra_experiment, _delta_ra_lines),
    ("scaling", "quantization-error decay over feedback bits", run_scaling_experiment, _scaling_lines),
)


def _cmd_experiment(args):
    """Run the experiment of the subcommand's `_EXPERIMENTS` row on the
    config with the flags' overrides, emit it and print its summary."""
    cfg = _load_cfg(args)
    overrides = {"master_seed": args.seed, "workers": getattr(args, "workers", None)}
    overrides = {k: v for k, v in overrides.items() if v is not None}
    if overrides:
        cfg = cfg.replace(**overrides)
    if getattr(args, "b_list", None):
        cfg = cfg.replace(b_list=[int(b) for b in args.b_list.split(",")])
    result = args.run(cfg)
    paths = emit(result, args.out)
    scale, unit = (math.log(2.0), "bits") if getattr(args, "bits", False) else (1.0, "nats")
    for line in args.lines(result, lambda nats: f"{nats / scale:.4f}", unit):
        print(line)
    print(f"wrote {paths[0]} and {paths[1]}")
    return 0


def _cmd_bounds(args):
    cfg = _load_cfg(args)
    n_t_list = [int(x) for x in args.n_t_list.split(",")] if args.n_t_list else [cfg.params.n_t]
    b_list = [int(x) for x in args.b_list.split(",")] if args.b_list else [cfg.B]
    if args.snr_list:  # through the config, so its SNR check applies
        cfg = cfg.replace(snr_db_list=[float(x) for x in args.snr_list.split(",")])
    rows = [
        {"snr_db": snr_db, **vars(bounds_report(n_t, B, cfg.params.with_snr_db(snr_db).P, min(cfg.params.n_s, n_t)))}
        for n_t in n_t_list
        for B in b_list
        for snr_db in cfg.snr_db_list
    ]
    jpath = write_json(args.out, "bounds.json", rows)
    cpath = write_csv(args.out, "bounds.csv", _BOUNDS_COLUMNS, rows)
    for row in rows:
        c = f"{row['c_nt']:.4f}" if row["c_nt"] is not None else "-"
        print(f"n_t={row['n_t']} B={row['B']} snr={row['snr_db']:g} dB  c={c}  jindal/user={row['jindal_gap']:.4f}")
    print(f"wrote {jpath} and {cpath}")
    return 0


def _cmd_quantizer(args):
    q = simplex_quantizer(args.quant_bits)
    measured = measure_worst_case_error(q, n_probes=args.probes)
    data = {"B": q.B, "idealized_delta": q.delta, "measured_delta": measured, "points": q.points.tolist()}
    path = write_json(args.out, f"simplex_quantizer_B{args.quant_bits}.json", data)
    print(f"B={q.B}: {len(q.points)} points, delta {q.delta:.6f}, measured {measured:.6f}")
    print(f"wrote {path}")
    return 0


def _cmd_codebook_gen(args):
    seed = SeedSpec(args.seed if args.seed is not None else 12345).derive("cbgen")
    cb = _CODEBOOK_KINDS[args.kind](args, seed)
    save_codebook(cb, args.path)
    print(f"wrote {cb.size} x {cb.dim} codebook to {args.path}")
    return 0


def _cmd_codebook_check(args):
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

    for name, help_text, run, lines in _EXPERIMENTS:
        p = sub.add_parser(name, help=help_text)
        p.add_argument("--config", help="JSON config file")
        p.add_argument("--seed", type=int, help="override master_seed")
        p.add_argument("--out", default="out", help="output directory")
        if run is run_scaling_experiment:
            p.add_argument("--b-list", help="comma-separated feedback bit counts, e.g. 4,6,8,10")
        else:
            p.add_argument("--workers", type=int, help="override worker count")
            p.add_argument("--bits", action="store_true", help="print rates in bits (log2) instead of nats")
        p.set_defaults(fn=_cmd_experiment, run=run, lines=lines)

    p = sub.add_parser("bounds", help="closed-form bound tables over (n_t, B, SNR)")
    p.add_argument("--config", help="JSON config file")
    p.add_argument("--out", default="out", help="output directory")
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
    actions = p.add_subparsers(dest="action", required=True)
    p = actions.add_parser("gen", help="write a codebook file")
    p.add_argument("path")
    p.add_argument("--kind", default="dft", choices=list(_CODEBOOK_KINDS))
    p.add_argument("--dim", type=int, default=4)
    p.add_argument("--bits", dest="gen_bits", type=int, default=4, help="bits for rvq generation")
    p.add_argument("--seed", type=int)
    p.set_defaults(fn=_cmd_codebook_gen)
    p = actions.add_parser("check", help="report a codebook file's size and frame constant")
    p.add_argument("path")
    p.set_defaults(fn=_cmd_codebook_check)

    args = parser.parse_args(argv)
    try:
        return args.fn(args)
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
