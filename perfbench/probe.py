"""Set-up probe: a fresh interpreter runs one draw of a workload and exits.

run.py times this whole process, from spawn to exit, as ``setup_s``: the
imports, config parsing, codebook and cross-Gram construction and the first
fill of the scheduling-configuration cache.

    python3 perfbench/probe.py --workload sumrate-rafull --seed 109
"""

import argparse

from workloads import WORKLOADS, import_ramimo, make_config, run_experiment


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    args = ap.parse_args()
    harness = import_ramimo()
    run_experiment(harness, args.workload, make_config(harness, args.workload, args.seed, 1))


if __name__ == "__main__":
    main()
