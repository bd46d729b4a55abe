"""Pinned experiment configs of the ramimo benchmark, shared by run.py and probe.py.

Each workload is one experiment the paper runs, at the config the
acceptance criteria pin, with the master seed taken from ``--seed``.
``draws`` is the number of Monte Carlo draws in one measured
``run_*_experiment`` call, about one second of work, so a run times many
calls.  ``passes`` configs with distinct seeds make one pass; its
``passes * draws`` draws give the quality values, enough that their
seed-to-seed spread stays well inside the benchmark's bounds.
"""

import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"

WORKLOADS = {
    "sumrate-rafull": {
        "kind": "sum-rate",
        "default_seed": 109,
        "draws": 50,
        "passes": 13,
        "config": {
            "system": {"n_t": 4, "n_r": 1, "n_s": 2},
            "num_users": 10,
            "snr_db_list": [10.0],
            "B": 4,
            "feedback_codebook": {"kind": "rvq-union-tx"},
            "strategy": "ra-full",
            "scheduler": "brute",
        },
    },
    "sumrate-zf-ofdm": {
        "kind": "sum-rate",
        "default_seed": 111,
        "draws": 150,
        "passes": 4,
        "config": {
            "system": {"n_t": 4, "n_r": 1, "n_s": 2},
            "num_users": 10,
            "snr_db_list": [30.0],
            "B": 4,
            "feedback_codebook": {"kind": "rvq-union-tx"},
            "strategy": "chordal",
            "scheduler": "brute",
            "precoder": "zf",
            "F": 8,
            "rho": 0.95,
        },
    },
    "deltara-snr-sweep": {
        "kind": "delta-ra",
        "default_seed": 107,
        "draws": 25,
        "passes": 16,
        "config": {
            "system": {"n_t": 3, "n_r": 1, "n_s": 3},
            "num_users": 3,
            "snr_db_list": [0.0, 20.0, 40.0, 60.0, 80.0, 100.0],
            "B": 6,
            "feedback_codebook": {"kind": "rvq-union-tx"},
            "strategy": "ra-full",
            "scheduler": "brute",
        },
    },
}


def import_ramimo():
    """Import ramimo from this checkout's ``src``, never from an installed copy.

    Exits with code 2 when the checkout has no sources, so a directory that
    holds only the benchmark fails instead of measuring something else.
    """
    if not (SRC / "ramimo" / "__init__.py").is_file():
        sys.stderr.write(f"perfbench: no ramimo sources under {SRC}\n")
        raise SystemExit(2)
    sys.path.insert(0, str(SRC))
    import ramimo
    import ramimo.harness

    if Path(ramimo.__file__).resolve().parent != (SRC / "ramimo").resolve():
        sys.stderr.write(f"perfbench: imported ramimo from {ramimo.__file__}, not from {SRC}\n")
        raise SystemExit(2)
    return ramimo.harness


def make_config(harness, name, seed, num_draws):
    """SimConfig of workload `name` with the given master seed and draw count."""
    w = WORKLOADS[name]
    return harness.SimConfig.from_dict(
        {**w["config"], "num_draws": num_draws, "master_seed": seed, "workers": 1}
    )


def run_experiment(harness, name, cfg):
    """The one ``run_*_experiment`` call a workload measures."""
    if WORKLOADS[name]["kind"] == "delta-ra":
        return harness.run_delta_ra_experiment(cfg)
    return harness.run_sum_rate_experiment(cfg)
