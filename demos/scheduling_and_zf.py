"""Scheduling methods and the zeroforcing baseline under quantized feedback.

Part 1: greedy insertion against exact search on the same instances.
Part 2: the high-SNR contrast - fixed-codebook transmission loses a bounded
amount to quantized feedback, while zeroforcing on quantized directions is
interference-limited and its loss keeps growing with SNR.

Run:  python demos/scheduling_and_zf.py
"""

import numpy as np

from ramimo import SimConfig, run_contrast_experiment
from ramimo.channel import SystemParams
from ramimo.codebook import canonical_onb
from ramimo.numerics import SeedSpec, sample_complex_gaussian
from ramimo.scheduler import schedule_bruteforce, schedule_greedy


def greedy_vs_brute():
    params = SystemParams(n_t=4, n_r=1, n_s=2, P=10.0)
    C = canonical_onb(4)
    losses = []
    exact = 0
    n = 400
    for i in range(n):
        vectors = {m: sample_complex_gaussian(4, SeedSpec(55).derive(i, m)) for m in range(6)}
        b = schedule_bruteforce(vectors, C, params)
        g = schedule_greedy(vectors, C, params)
        losses.append(b.predicted_sum_rate - g.predicted_sum_rate)
        if abs(losses[-1]) < 1e-12:
            exact += 1
    print(f"greedy vs exact scheduling on {n} instances (6 users, 4 beams, up to 2 scheduled):")
    print(f"  greedy exactly optimal on {exact} / {n} instances")
    print(f"  mean rate loss {np.mean(losses):.4f} nats, worst {np.max(losses):.4f} nats\n")


def high_snr_contrast():
    cfg = SimConfig.from_dict(
        {
            "system": {"n_t": 4, "n_r": 1, "n_s": 2},
            "num_users": 6,
            "num_draws": 600,
            "snr_db_list": [0.0, 10.0, 20.0, 30.0, 40.0],
            "B": 4,
            "scheduler": "greedy",
            "feedback_codebook": {"kind": "rvq-union-tx"},
            "master_seed": 77,
        }
    )
    result = run_contrast_experiment(cfg)
    print("rate lost to quantized feedback (nats), by transmission scheme:")
    print(f"{'snr [dB]':>9} {'fixed codebook':>15} {'zeroforcing':>12}")
    for row in result.tables:
        print(f"{row['snr_db']:>9g} {row['fixed_codebook_gap_nats']:>15.3f} {row['zf_gap_nats']:>12.3f}")
    rows = {row["snr_db"]: row for row in result.tables}
    ratio = rows[40.0]["fixed_codebook_gap_nats"] / rows[20.0]["fixed_codebook_gap_nats"]
    print(f"\nfixed-codebook loss grows {ratio:.2f}x from 20 to 40 dB (bounded);")
    print("zeroforcing loss keeps climbing: residual interference scales with power")


if __name__ == "__main__":
    greedy_vs_brute()
    high_snr_contrast()
