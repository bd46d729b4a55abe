"""Acceptance suite: one test per exit criterion, each printing a PASS/FAIL
line with the measured quantities.

Criterion 2 asserts that the simplex quantizer reaches the worst-case
max-norm error 2^{-B/2-1} on which the closed-form n_t = 3 gap rests.  The
construction reaches it by giving each triangular cell the centre of its
bounding box, a point that lies off the simplex plane; points on the
plane cannot reach it (see `ramimo.bounds.simplex_quantizer`).
"""

import json
import math
from itertools import combinations, permutations

import numpy as np
import pytest

from ramimo.bounds import (
    c_nt,
    empirical_D,
    measure_worst_case_error,
    simplex_quantizer,
)
from ramimo.channel import SystemParams, effective_channel_state
from ramimo.codebook import canonical_onb, concat_codebooks, random_unitary, rvq_codebook
from ramimo.feedback import (
    chordal_cdi,
    efficient_cdi,
    lemma1_feedback,
    lemma1_rhs,
    ra_distance,
    raw_scale_sq,
)
from ramimo.harness import SimConfig, emit, run_delta_ra_experiment, run_sum_rate_experiment
from ramimo.numerics import SeedSpec, sample_complex_gaussian
from ramimo.scheduler import schedule_bruteforce, schedule_greedy


def _report(criterion, ok, detail):
    print(f"ACCEPTANCE {criterion}: {'PASS' if ok else 'FAIL'} - {detail}")
    return ok


# -------------------------------------------------------------------------
# 1. instrumented scalar-product budgets
# -------------------------------------------------------------------------


def test_criterion_01_scalar_product_table():
    params = SystemParams(n_t=4, n_r=1, n_s=2)
    C = concat_codebooks(canonical_onb(4), rvq_codebook(4, 2, SeedSpec(100).derive("c")))
    assert len(C) == 8
    eff = effective_channel_state(sample_complex_gaussian(4, SeedSpec(100).derive("h")), params)
    md, ra = {}, {}
    for B in (1, 2, 3, 4, 8):
        V = rvq_codebook(4, B, SeedSpec(100).derive("v"))
        md[B] = chordal_cdi(eff, V).scalar_product_count
        ra[B] = efficient_cdi(eff, C, V).scalar_product_count
    md_expected = {1: 2, 2: 4, 3: 8, 4: 16, 8: 256}
    ra_expected = {1: 16, 2: 32, 3: 64, 4: 128, 8: 2048}
    ok = md == md_expected and ra == ra_expected
    assert _report(1, ok, f"direction-metric counts {sorted(md.values())}, rate-metric counts {sorted(ra.values())}")


# -------------------------------------------------------------------------
# 2. simplex quantizer worst-case error 2^{-B/2-1}
# -------------------------------------------------------------------------


def test_criterion_02_simplex_quantizer_error():
    rows = []
    ok = True
    for B in (2, 4, 6):
        q = simplex_quantizer(B)
        measured = measure_worst_case_error(q, n_probes=10**6)
        rows.append(f"B={B}: delta {q.delta:.6f}, measured {measured:.6f}")
        ok = ok and abs(measured - q.delta) <= 1e-3
    detail = "; ".join(rows) + " (one max-norm cell centre per triangular cell)"
    assert _report(2, ok, detail)


# -------------------------------------------------------------------------
# 3. covering-constant sign structure
# -------------------------------------------------------------------------


def test_criterion_03_covering_constant_signs():
    above = all(c_nt(n) > 1.0 for n in range(3, 14))
    below = c_nt(14) < 1.0
    ok = above and below
    assert _report(3, ok, f"c(3..13) > 1: {above}; c(14) = {c_nt(14):.4f} < 1: {below}")


# -------------------------------------------------------------------------
# 4. constructive-strategy bound holds on every draw
# -------------------------------------------------------------------------


def test_criterion_04_constructive_bound_validity():
    violations = 0
    total = 0
    for n_t in (2, 3, 4):
        params = SystemParams(n_t=n_t, n_r=1, n_s=n_t, P=10.0, sigma_sq=1.0)
        C = random_unitary(n_t, SeedSpec(104).derive("c", n_t))
        V = concat_codebooks(C, rvq_codebook(n_t, 3, SeedSpec(104).derive("v", n_t)))
        for i in range(10_000):
            eff = effective_channel_state(
                sample_complex_gaussian(n_t, SeedSpec(104).derive("h", n_t, i)), params
            )
            msg = lemma1_feedback(eff, C, V)
            gap = ra_distance(eff, msg.cqi, V[msg.cdi_index], C, params, sizes=(n_t,)).value
            rhs = lemma1_rhs(eff, V[msg.cdi_index], C)
            total += 1
            if gap > rhs + 1e-9:
                violations += 1
    ok = violations == 0
    assert _report(4, ok, f"{violations} violations in {total} draws (n_t in 2,3,4)")


# -------------------------------------------------------------------------
# 5. configuration-reduction soundness of the worst-case distance
# -------------------------------------------------------------------------


def _explicit_enumeration_distance(eff, theta, nu, C, params, n_users):
    p = np.abs(C.vectors @ np.conj(eff.h_hat)) ** 2
    q = theta * theta * raw_scale_sq(params) * np.abs(C.vectors @ np.conj(nu)) ** 2
    best = 0.0
    for k in range(1, params.n_s + 1):
        for rest in combinations(range(1, n_users), k - 1):
            for beams in permutations(range(len(C)), k):
                noise = params.sigma_sq * k / params.P
                it = sum(p[beams[i]] for i in range(1, k))
                iq = sum(q[beams[i]] for i in range(1, k))
                best = max(best, abs(np.log1p(p[beams[0]] / (noise + it)) - np.log1p(q[beams[0]] / (noise + iq))))
    return best


def test_criterion_05_reduction_soundness():
    worst = 0.0
    count = 0
    for n_t in (2, 3):
        params = SystemParams(n_t=n_t, n_r=1, n_s=n_t, P=5.0, sigma_sq=1.0)
        C = canonical_onb(n_t)
        for i in range(500):
            eff = effective_channel_state(
                sample_complex_gaussian(n_t, SeedSpec(105).derive("h", n_t, i)), params
            )
            nu = sample_complex_gaussian(n_t, SeedSpec(105).derive("nu", n_t, i))
            nu = nu / np.linalg.norm(nu)
            theta = float(np.sqrt(eff.lambda_sq)) * 0.9
            reduced = ra_distance(eff, theta, nu, C, params).value
            explicit = _explicit_enumeration_distance(eff, theta, nu, C, params, n_users=n_t)
            worst = max(worst, abs(reduced - explicit))
            count += 1
    ok = worst <= 1e-12
    assert _report(5, ok, f"max |reduced - explicit| = {worst:.2e} over {count} instances")


# -------------------------------------------------------------------------
# 6. scheduler oracle equivalence
# -------------------------------------------------------------------------


def _explicit_sum_rate(S, beams, C, vectors, params):
    """Sum rate of users S on codewords `beams`, written out per user from
    the rate formula with Python scalars, apart from the package's rate code."""
    noise = params.sigma_sq * len(S) / params.P
    total = 0.0
    for i, m in enumerate(S):
        powers = [abs(complex(np.vdot(vectors[m], C[b]))) ** 2 for b in beams]
        total += math.log1p(powers[i] / (noise + sum(powers[:i] + powers[i + 1 :])))
    return total


def test_criterion_06_scheduler_oracle():
    params = SystemParams(n_t=2, n_r=1, n_s=2, P=4.0, sigma_sq=1.0)
    C = canonical_onb(2)
    mismatches = 0
    greedy_wins = 0
    for i in range(100):
        vectors = {
            m: sample_complex_gaussian(2, SeedSpec(106).derive(i, m)) for m in range(4)
        }
        decision = schedule_bruteforce(vectors, C, params)
        best = (0.0, (), ())
        for k in range(1, params.n_s + 1):
            for S in combinations(sorted(vectors), k):
                for beams in permutations(range(len(C)), k):
                    total = _explicit_sum_rate(S, beams, C, vectors, params)
                    if total > best[0]:
                        best = (total, S, beams)
        if abs(decision.predicted_sum_rate - best[0]) > 1e-12:
            mismatches += 1
        g = schedule_greedy(vectors, C, params)
        if g.predicted_sum_rate > decision.predicted_sum_rate + 1e-12:
            greedy_wins += 1
    ok = mismatches == 0 and greedy_wins == 0
    assert _report(6, ok, f"{mismatches} oracle mismatches, {greedy_wins} greedy>brute events in 100 instances")


# -------------------------------------------------------------------------
# 7. worst-case gap bounded across the SNR sweep
# -------------------------------------------------------------------------


def test_criterion_07_gap_bounded_over_snr():
    cfg = SimConfig.from_dict(
        {
            "system": {"n_t": 3, "n_r": 1, "n_s": 3},
            "num_users": 3,
            "num_draws": 10_000,
            "snr_db_list": [0.0, 10.0, 20.0, 30.0, 40.0],
            "B": 6,
            "strategy": "ra-full",
            "scheduler": "brute",
            "feedback_codebook": {"kind": "rvq-union-tx"},
            "master_seed": 107,
        }
    )
    result = run_delta_ra_experiment(cfg)
    assert "bounds_omitted" not in result.metadata
    rows = {row["snr_db"]: row for row in result.tables}
    bound_ok = True
    details = []
    for snr, row in sorted(rows.items()):
        margin = row["lemma2_bound_empirical"] - row["delta_ra_nats"]
        bound_ok = bound_ok and row["delta_ra_nats"] <= row["lemma2_bound_empirical"] + 2 * row["stderr_nats"]
        details.append(f"{snr:g}dB gap={row['delta_ra_nats']:.3f} bound={row['lemma2_bound_empirical']:.3f} (margin {margin:+.3f})")
    ratio = rows[40.0]["delta_ra_nats"] / rows[20.0]["delta_ra_nats"]
    ok = bound_ok and ratio <= 2.0
    assert _report(7, ok, "; ".join(details) + f"; gap(40)/gap(20) = {ratio:.3f}")


# -------------------------------------------------------------------------
# 8. quantization-error scaling in feedback bits
# -------------------------------------------------------------------------


def test_criterion_08_error_scaling():
    n_t = 3
    params = SystemParams(n_t=n_t, n_r=1, n_s=2, P=10.0, sigma_sq=1.0)
    C = canonical_onb(n_t)
    family_seed = SeedSpec(108).derive("fam")

    def family(B):
        return rvq_codebook(n_t, B, family_seed)

    b_list = (4, 6, 8, 10)
    d_hats = []
    for B in b_list:
        _, d_hat = empirical_D(B, n_t, C, family, params, samples=10_000, seed=SeedSpec(108).derive("mc"))
        d_hats.append(d_hat)
    slope = float(np.polyfit(np.array(b_list, float), np.log2(d_hats), 1)[0])
    slope_ok = -0.65 <= slope <= -0.35
    bound_ok = all(
        d_hats[i] <= c_nt(3) * 2.0 ** (-B / 2) for i, B in enumerate(b_list) if B >= 6
    )
    ok = slope_ok and bound_ok
    assert _report(
        8,
        ok,
        f"log2 slope {slope:.3f} (target -0.5); direction errors {[round(d, 5) for d in d_hats]}"
        f"; bound check for B>=6: {bound_ok}",
    )


# -------------------------------------------------------------------------
# 9. strategy ordering at matched configuration
# -------------------------------------------------------------------------


def test_criterion_09_strategy_ordering():
    base = {
        "system": {"n_t": 4, "n_r": 1, "n_s": 2},
        "num_users": 10,
        "num_draws": 10_000,
        "snr_db_list": [10.0],
        "B": 4,
        "scheduler": "brute",
        "feedback_codebook": {"kind": "rvq-union-tx"},
        "master_seed": 109,
    }
    draws = {}
    for strat in ("ra-full", "ra-efficient", "chordal"):
        cfg = SimConfig.from_dict({**base, "strategy": strat})
        res = run_sum_rate_experiment(cfg)
        draws[strat] = np.array(res.draws["sum_rate_nats"])[:, 0]
    details = []
    ok = True
    for other in ("ra-efficient", "chordal"):
        d = draws["ra-full"] - draws[other]
        se = d.std(ddof=1) / np.sqrt(len(d))
        z = d.mean() / se if se > 0 else 0.0
        if d.mean() >= 0 and z >= 1.96:
            verdict = "ahead with 95% confidence"
        elif abs(z) < 1.96:
            verdict = "statistical tie"
        else:
            verdict = "behind with 95% confidence"
            ok = False
        details.append(f"ra-full vs {other}: diff {d.mean():+.4f} (z {z:+.2f}) {verdict}")
    proximity = abs(draws["ra-efficient"].mean() / draws["ra-full"].mean() - 1.0)
    details.append(f"efficient within {proximity * 100:.2f}% of full (soft target 5%, reported)")
    assert _report(9, ok, "; ".join(details))


# -------------------------------------------------------------------------
# 10. byte-level determinism across reruns and worker counts
# -------------------------------------------------------------------------


def test_criterion_10_determinism(tmp_path):
    base = {
        "system": {"n_t": 2, "n_r": 1, "n_s": 2},
        "num_users": 3,
        "num_draws": 40,
        "snr_db_list": [10.0],
        "B": 3,
        "strategy": "ra-full",
        "scheduler": "greedy",
        "master_seed": 110,
    }
    outputs = {}
    for name, workers in (("rerun1", 1), ("rerun2", 1), ("par", 2)):
        cfg = SimConfig.from_dict({**base, "workers": workers})
        res = run_sum_rate_experiment(cfg)
        emit(res, tmp_path / name)
        outputs[name] = (
            (tmp_path / name / "curves.csv").read_bytes(),
            json.loads((tmp_path / name / "result.json").read_text())["draws"],
        )
    rerun_ok = outputs["rerun1"][0] == outputs["rerun2"][0]
    worker_ok = outputs["rerun1"][1] == outputs["par"][1]
    ok = rerun_ok and worker_ok
    assert _report(10, ok, f"rerun byte-identical: {rerun_ok}; worker-count invariant draws: {worker_ok}")
