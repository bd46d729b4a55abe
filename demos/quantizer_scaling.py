"""Quantization-error decay in feedback bits, and the simplex quantizer.

Part 1 measures the direction-only min-max error of random feedback
codebooks against a unitary transmit codebook: it halves per two bits for
n_t = 3 (log2 slope -1/2) and stays below the covering-argument curve.

Part 2 builds the explicit quantizer for the probability simplex (where
squared beam alignments live for n_t = 3) and measures its worst-case
max-norm error by dense sampling.  Each triangular cell is served by the
centre of its bounding box, so the measured error equals the closed form
2^{-B/2-1} and the ratio column reads 1.000.

Run:  python demos/quantizer_scaling.py
"""

import numpy as np

from ramimo import SimConfig, run_scaling_experiment
from ramimo.bounds import measure_worst_case_error, simplex_quantizer

CFG = {
    "system": {"n_t": 3, "n_r": 1, "n_s": 2},
    "num_users": 1,
    "num_draws": 3000,
    "snr_db_list": [10.0],
    "master_seed": 31,
    "b_list": [4, 6, 8, 10],
}


def main():
    result = run_scaling_experiment(SimConfig.from_dict(CFG))
    print(f"{'B':>3} {'measured error':>15} {'covering bound':>15}")
    for row in result.tables:
        print(f"{row['B']:>3} {row['D_hat_est']:>15.5f} {row['d_hat_bound']:>15.5f}")
    print(f"fitted log2 slope: {result.metadata['log2_slope_d_hat']:.3f} "
          f"(target {result.metadata['target_slope']:.3f})\n")

    print(f"{'B':>3} {'points':>7} {'delta':>10} {'measured':>9} {'ratio':>6}")
    for B in (2, 4, 6):
        q = simplex_quantizer(B)
        measured = measure_worst_case_error(q, n_probes=3 * 10**5)
        print(f"{B:>3} {len(q.points):>7} {q.delta:>10.5f} {measured:>9.5f} {measured / q.delta:>6.3f}")


if __name__ == "__main__":
    main()
