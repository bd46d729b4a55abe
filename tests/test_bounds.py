import math

import numpy as np
import pytest

from ramimo.bounds import (
    SimplexQuantizer,
    bounds_report,
    c_nt,
    c_nt_table,
    covering_density,
    covering_number_bound,
    empirical_D,
    empirical_D_block,
    jindal_gap,
    lemma2_bound,
    lemma3_bound,
    lemma3_validity_threshold,
    measure_worst_case_error,
    min_direction_gap,
    min_weighted_gap,
    ra_nt3_gap,
    simplex_quantizer,
    theorem1_bound,
)
from ramimo.channel import SystemParams
from ramimo.codebook import canonical_onb, rvq_codebook
from ramimo.numerics import SeedSpec, sample_complex_gaussian

from oracles import plain_bisection


def test_covering_density_small_dimensions():
    assert covering_density(2) == 1.2091
    assert covering_density(3) == 1.4635
    assert covering_density(4) == 1.7655


def test_covering_density_rogers_regime():
    assert covering_density(5) == pytest.approx(4 * 5 * math.log(5))


def test_covering_density_rejects_d1():
    with pytest.raises(ValueError):
        covering_density(1)


def test_c3_direct_formula():
    expected = (1.2091 * 6 * math.gamma(2.0) * math.sqrt(3) / (2 * math.pi)) ** 0.5
    assert c_nt(3) == pytest.approx(expected, abs=1e-12)


def test_c_sign_structure():
    for n_t in range(3, 14):
        assert c_nt(n_t) > 1.0, n_t
    assert c_nt(14) < 1.0


def test_c_trend_reported():
    rows, nonincreasing = c_nt_table(6, 20)
    # report rather than assert the trend; the table itself must be sane
    print("c(n_t) nonincreasing on 6..20:", nonincreasing)
    assert len(rows) == 15
    assert all(v > 0 for _, v in rows)


def test_c_rejects_small_n_t():
    with pytest.raises(ValueError):
        c_nt(2)


def test_lemma3_bound_decays_to_zero():
    assert lemma3_bound(400, 3, 1.0) == pytest.approx(0.0, abs=1e-50)


def test_lemma3_bound_exponent_arithmetic():
    b1 = lemma3_bound(4, 3, 1.0)
    b2 = lemma3_bound(8, 3, 1.0)
    assert b2 / b1 == pytest.approx(2.0 ** (-4 / 2), abs=1e-12)


def test_lemma3_bound_plugin():
    assert lemma3_bound(4, 3, 1.0) == pytest.approx(c_nt(3) * 0.25, abs=1e-12)


def test_lemma3_validity_threshold_value():
    assert lemma3_validity_threshold(3) == pytest.approx(math.log2(2 * math.sqrt(2)))


def test_lemma2_zero_errors():
    assert lemma2_bound([0.0, 0.0, 0.0], 3) == 0.0


def test_lemma2_saturates_for_large_errors():
    val = lemma2_bound([1e9] * 3, 3)
    # inner expression approaches n_t - 1 = 2 from above
    assert val <= 2 * 3 * math.log1p(2.0) * 1.01
    assert val >= 2 * 3 * math.log1p(2.0) * 0.99
    assert math.isfinite(val)


def test_lemma2_matches_dense_grid():
    # D below, above and at n_t - 1: the objective rises, falls or is flat in eps
    eps = np.logspace(-9, 6, 2_000_000)
    for D, n_t in ((0.25, 3), (5.0, 3), (2.0, 3), (40.0, 8)):
        inner = (1 + eps) * D / (1 + eps * D / (n_t - 1))
        expected = 2 * math.log1p(float(inner.min()))
        assert lemma2_bound([D], n_t) == pytest.approx(expected, abs=1e-6)


def test_lemma2_rejects_negative():
    with pytest.raises(ValueError):
        lemma2_bound([-0.1], 3)


def test_ra_vs_jindal_bit_shift():
    # the per-user argument of the explicit construction equals the
    # classical curve at B + (n_t - 1) bits
    for B in (2, 4, 6):
        arg_ra = 2.0 ** (-B / 2 - 1)
        arg_j = 2.0 ** (-(B + 2) / 2)
        assert arg_ra == arg_j


def test_jindal_b0():
    assert jindal_gap(0, 3, 7.0) == pytest.approx(math.log1p(7.0))


@pytest.mark.parametrize("n_t", [1, 0, -2])
def test_jindal_rejects_fewer_than_two_antennas(n_t):
    # the exponent -B / (n_t - 1) needs n_t >= 2
    with pytest.raises(ValueError, match="n_t must be >= 2"):
        jindal_gap(4, n_t, 10.0)
    with pytest.raises(ValueError, match="n_t must be >= 2"):
        bounds_report(n_t, 4, 10.0, 1)


def test_ra_nt3_plugin():
    assert ra_nt3_gap(2, 1.0) == pytest.approx(6 * math.log1p(0.25), abs=1e-12)


def test_theorem1_zero_error():
    assert theorem1_bound(2, 4, 10.0, 0.0) == 0.0
    assert theorem1_bound(0, 4, 10.0, 0.3) == 0.0


def test_theorem1_linear_in_ns():
    assert theorem1_bound(4, 4, 10.0, 0.1) == pytest.approx(2 * theorem1_bound(2, 4, 10.0, 0.1))


def test_theorem1_composed_with_covering_constant():
    d_hat = c_nt(3) * 2.0 ** (-6 / 2)
    val = theorem1_bound(2, 3, 10.0, d_hat)
    assert math.isfinite(val) and val > 0


def test_covering_number_hand_value():
    # d=2, delta=0.5: Theta * binom(4,2) * (sqrt(3)/2) / (pi * 0.25)
    expected = 1.2091 * 6 * (math.sqrt(3) / 2) / (math.pi * 0.25)
    assert covering_number_bound(2, 0.5) == pytest.approx(expected, abs=1e-12)


def test_covering_number_monotone_in_delta():
    assert covering_number_bound(2, 0.1) > covering_number_bound(2, 0.2)


def test_covering_number_inversion_matches_c():
    # solving 2^B = N(delta) for delta recovers c(n_t) 2^{-B/(n_t-1)}
    for n_t, B in ((3, 6), (4, 9)):
        d = n_t - 1
        delta = c_nt(n_t) * 2.0 ** (-B / d)
        assert covering_number_bound(d, delta) == pytest.approx(2.0**B, rel=1e-9)


def test_min_gap_oracle_injection():
    # a feedback table containing the channel's own profile yields zero error
    C = canonical_onb(3)
    h = np.array([0.6, 0.8j, 0.0], dtype=complex)
    psi = np.abs(C.vectors @ np.conj(h)) ** 2
    phi = np.vstack([psi, [1.0, 0.0, 0.0]])
    assert min_direction_gap(psi, phi) == 0.0
    assert min_weighted_gap(psi, phi, 0.5) == pytest.approx(0.0, abs=1e-9)


@pytest.mark.parametrize("lam_tilde", [0.5, 1.0 - 1e-6, 1.0 - 1e-10])
def test_min_weighted_gap_matches_dense_grid(lam_tilde):
    # oracle: the inner minimum over a theta_tilde grid on [0, 1], refined
    # around each codeword's best point; the value moves by at most the
    # grid step (phi_w <= 1), so the grid cannot undercut the solver
    C = canonical_onb(3)
    V = rvq_codebook(3, 3, SeedSpec(54).derive("v"))
    phi = np.abs(V.vectors.conj() @ C.vectors.T) ** 2
    for i in range(20):
        h = sample_complex_gaussian(3, SeedSpec(55).derive("h", i))
        psi = np.abs(C.vectors @ np.conj(h / np.linalg.norm(h))) ** 2
        oracle = np.inf
        for row in phi:
            tt = np.linspace(0.0, 1.0, 10_001)
            for _ in range(3):
                vals = np.abs(lam_tilde * psi[None, :] - tt[:, None] * row[None, :]).max(axis=1)
                oracle = min(oracle, float(vals.min()))
                step = tt[1] - tt[0]
                tt = np.clip(tt[np.argmin(vals)] + np.linspace(-step, step, 1001), 0.0, 1.0)
        got = min_weighted_gap(psi, phi, lam_tilde)
        assert got <= oracle + 1e-10
        assert got >= oracle - 1e-8


def _bisection_weighted_gaps(psis, phi_table, lam_tildes):
    """Every (row, codeword) value of `min_weighted_gap` by log-gain
    bisection over theta_tilde = 1/(1 + e^-x): every mismatch rises in x."""
    n, n_v = len(psis), len(phi_table)
    target = np.repeat((lam_tildes[:, None] * psis).T, n_v, axis=1)

    def mismatch(x, target, phi_cols):
        return phi_cols / (1.0 + np.exp(-x)) - target

    _, vals = plain_bisection(mismatch, (target, np.tile(phi_table.T, (1, n))))
    return vals.reshape(n, n_v)


@pytest.mark.parametrize("n_t", [2, 3, 4])
@pytest.mark.parametrize("lam_tilde", [0.0, 0.5, 1.0 - 1e-10])
def test_min_weighted_gaps_match_bisection_oracle(n_t, lam_tilde):
    # the closed form is exact on [0, 1]; the bisection searches inside it
    # and lands within its 2e-11 tolerance, on random codewords, codewords
    # with no power on any beam (flat columns) and duplicated codewords
    from ramimo.bounds import _min_weighted_gaps

    C = canonical_onb(n_t)
    V = rvq_codebook(n_t, 4, SeedSpec(58).derive("v", n_t))
    phi = np.abs(V.vectors.conj() @ C.vectors.T) ** 2
    phi = np.vstack([phi, np.zeros((2, n_t)), phi[[3, 3]], np.eye(n_t)[:1]])
    h = np.array([sample_complex_gaussian(n_t, SeedSpec(59).derive("h", n_t, i)) for i in range(30)])
    psi = np.abs(h.conj() @ C.vectors.T) ** 2 / np.sum(np.abs(h) ** 2, axis=1, keepdims=True)
    psi[0] = np.eye(n_t)[0]  # a channel on one beam
    lam = np.full(len(psi), lam_tilde)
    oracle = _bisection_weighted_gaps(psi, phi, lam)
    closed = np.array([_min_weighted_gaps(psi, phi[v : v + 1], lam) for v in range(len(phi))]).T
    assert np.all(closed <= oracle + 1e-15)
    assert np.all(closed >= oracle - 2e-11)
    assert np.array_equal(closed[:, len(phi) - 5], (lam_tilde * psi).max(axis=1))  # a flat column's value is max a
    assert np.array_equal(_min_weighted_gaps(psi, phi, lam), closed.min(axis=1))


@pytest.mark.parametrize("n_t", [2, 3, 4])
def test_min_weighted_gaps_match_ordered_pair_form_bitwise(n_t):
    # one crossing per unordered beam pair gives the ordered-pair form's
    # bits, on 300 random rows against random, zero-power, single-beam and
    # duplicated codewords, with zero alignments, lam_tilde = 0 and
    # lam_tilde near 1 among the rows
    from oracles import ordered_pair_weighted_gaps
    from ramimo.bounds import _min_weighted_gaps

    rng = np.random.default_rng(60 + n_t)
    C = canonical_onb(n_t)
    V = rvq_codebook(n_t, 5, SeedSpec(61).derive("v", n_t))
    phi = np.abs(V.vectors.conj() @ C.vectors.T) ** 2
    phi = np.vstack([phi, np.zeros((1, n_t)), np.eye(n_t), phi[[2, 2]], 0.5 * np.eye(n_t)[-1:]])
    h = rng.standard_normal((300, n_t)) + 1j * rng.standard_normal((300, n_t))
    psi = np.abs(h.conj() @ C.vectors.T) ** 2 / np.sum(np.abs(h) ** 2, axis=1, keepdims=True)
    psi[:20] = 0.0  # zero alignments
    psi[20:40] = np.eye(n_t)[rng.integers(0, n_t, 20)]  # a channel on one beam
    psi[40:60] = phi[rng.integers(0, len(phi), 20)]  # a channel on a codeword
    lam = rng.uniform(0.0, 1.0, 300)
    lam[::7] = 0.0
    lam[1::7] = 1.0 - 1e-12
    got = _min_weighted_gaps(psi, phi, lam)
    assert got.tobytes() == ordered_pair_weighted_gaps(psi, phi, lam).tobytes()
    assert got[::7].tobytes() == np.zeros(len(got[::7])).tobytes()  # lam_tilde = 0 meets t = 0


def test_empirical_d_nonincreasing_in_b():
    params = SystemParams(n_t=3, n_s=2, P=10.0)
    C = canonical_onb(3)
    family_seed = SeedSpec(50).derive("fam")

    def family(B):
        return rvq_codebook(3, B, family_seed)

    seed = SeedSpec(51).derive("mc")
    prev_d, prev_dh = None, None
    for B in (2, 4, 6):
        d_est, dh_est = empirical_D(B, 3, C, family, params, samples=400, seed=seed)
        if prev_d is not None:
            assert d_est <= prev_d + 1e-12
            assert dh_est <= prev_dh + 1e-12
        prev_d, prev_dh = d_est, dh_est


def test_bounds_report_fields():
    rep = bounds_report(3, 6, 10.0, 2)
    assert rep.validity
    assert rep.c_nt == pytest.approx(c_nt(3))
    assert rep.ra_nt3_gap is not None
    rep2 = bounds_report(2, 6, 10.0, 2)
    assert rep2.c_nt is None
    assert rep2.jindal_gap > 0


@pytest.mark.parametrize("n_t", [2, 3, 4])
def test_bounds_report_rejects_negative_bits(n_t):
    with pytest.raises(ValueError, match="B must be >= 0"):
        bounds_report(n_t, -3, 10.0, 2)
    assert bounds_report(n_t, 0, 10.0, 2).jindal_gap == pytest.approx(math.log1p(10.0))


# ---------------------------------------------------------------------------
# simplex quantizer
# ---------------------------------------------------------------------------


def test_quantizer_rejects_odd_bits():
    with pytest.raises(ValueError):
        simplex_quantizer(3)


def test_quantizer_cell_and_point_counts():
    for B in (2, 4, 6):
        q = simplex_quantizer(B)
        assert q.points.shape == (2**B, 3)
        assert len(np.unique(q.points, axis=0)) == 2**B
        assert q.cells.shape == (2**B, 3, 3)


def test_quantizer_points_on_simplex():
    # points are nonnegative, and each lies within delta (max norm) of
    # every vertex of its own cell, hence of every point of the cell; the
    # points themselves may sit off the simplex plane
    q = simplex_quantizer(4)
    assert np.all(q.points >= -1e-15)
    assert np.abs(q.points[:, None, :] - q.cells).max() <= q.delta + 1e-12


@pytest.mark.parametrize("n_probes", [0, -1, -10**6])
def test_quantizer_measurement_rejects_no_probes(n_probes):
    # an empty probe grid would report a covering radius of 0.0
    with pytest.raises(ValueError, match="n_probes must be >= 1"):
        measure_worst_case_error(simplex_quantizer(2), n_probes=n_probes)
    assert measure_worst_case_error(simplex_quantizer(2), n_probes=1) == pytest.approx(0.25, abs=1e-12)


def test_quantizer_stored_delta_closed_form():
    for B in (2, 4, 6):
        assert simplex_quantizer(B).delta == pytest.approx(2.0 ** (-B / 2 - 1), abs=1e-9)


def test_quantizer_measured_radius_of_centroid_cells():
    # one centroid per cell has covering radius exactly
    # 2/(3k) = (4/3) * 2^{-B/2-1}: the max-norm cell centres that
    # simplex_quantizer uses remove this 4/3 penalty
    for B in (2, 4):
        q = simplex_quantizer(B)
        centroids = SimplexQuantizer(points=q.cells.mean(axis=1), B=B, delta=q.delta, cells=q.cells)
        k = 2 ** (B // 2)
        measured = measure_worst_case_error(centroids, n_probes=2 * 10**5)
        assert measured == pytest.approx(2.0 / (3 * k), abs=2e-3)


def _empirical_d_samples(seed, n_t, n):
    """The n effective channels of an empirical_D run, drawn one sample at a
    time from seed.generator(): n_t real parts, then n_t imaginary parts."""
    rng = seed.generator()
    out = []
    for _ in range(n):
        x = rng.standard_normal(2 * n_t)
        out.append((x[:n_t] + 1j * x[n_t:]) / np.sqrt(2.0))
    return out


def test_empirical_d_independent_of_batching(monkeypatch):
    import ramimo.bounds as bounds_mod

    params = SystemParams(n_t=3, n_s=2, P=10.0)
    C = canonical_onb(3)
    V = rvq_codebook(3, 4, SeedSpec(52).derive("fam"))
    seed = SeedSpec(53).derive("mc")
    whole = empirical_D(4, 3, C, V, params, samples=150, seed=seed)
    monkeypatch.setattr(bounds_mod, "_EMPIRICAL_D_ROWS", 3 * len(V))
    assert empirical_D(4, 3, C, V, params, samples=150, seed=seed) == whole
    one_by_one = []
    for h_hat in _empirical_d_samples(seed, 3, 150):
        h = h_hat / np.linalg.norm(h_hat)
        psi = np.abs(C.vectors @ np.conj(h)) ** 2
        one_by_one.append(min_direction_gap(psi, np.abs(V.vectors.conj() @ C.vectors.T) ** 2))
    assert whole[1] == pytest.approx(sum(one_by_one) / 150, abs=1e-12)


@pytest.mark.parametrize("rows_per_pass", [None, 7])
def test_empirical_d_block_matches_per_point_calls(monkeypatch, rows_per_pass):
    # six SNR points stacked into one pass (or into 7-sample passes that
    # straddle the points) give each point exactly its own empirical_D call
    import ramimo.bounds as bounds_mod

    C = canonical_onb(3)
    V = rvq_codebook(3, 4, SeedSpec(58).derive("fam"))
    params_list = [SystemParams(n_t=3, n_s=3).with_snr_db(snr) for snr in (0, 20, 40, 60, 80, 100)]
    seeds = [SeedSpec(59).derive("empD", s) for s in range(len(params_list))]
    per_point = [empirical_D(4, 3, C, V, p, samples=25, seed=seed) for p, seed in zip(params_list, seeds)]
    if rows_per_pass:
        monkeypatch.setattr(bounds_mod, "_EMPIRICAL_D_ROWS", rows_per_pass * len(V))
    assert empirical_D_block(4, 3, C, V, [p.P for p in params_list], 25, seeds) == per_point
    assert empirical_D_block(4, 3, C, V, [], 25, []) == []


def test_empirical_d_block_independent_of_pass_size(monkeypatch):
    # every pass size, from one sample per pass to more than all of them,
    # gives each point exactly its own empirical_D call; the points' seeds
    # may differ in master seed and stream length
    import ramimo.bounds as bounds_mod

    C = canonical_onb(3)
    V = rvq_codebook(3, 4, SeedSpec(58).derive("fam"))
    params_list = [SystemParams(n_t=3, n_s=3).with_snr_db(snr) for snr in (0, 40, 100)]
    seeds = [SeedSpec(59).derive("empD", 0), SeedSpec(60), SeedSpec(59).derive("empD", 2, 1)]
    per_point = [empirical_D(4, 3, C, V, p, samples=9, seed=seed) for p, seed in zip(params_list, seeds)]
    for rows_per_pass in range(1, len(seeds) * 9 + 2):
        monkeypatch.setattr(bounds_mod, "_EMPIRICAL_D_ROWS", rows_per_pass * len(V))
        assert empirical_D_block(4, 3, C, V, [p.P for p in params_list], 9, seeds) == per_point


def test_empirical_d_block_validation():
    C = canonical_onb(3)
    V = rvq_codebook(3, 4, SeedSpec(58).derive("fam"))
    params = SystemParams(n_t=3, n_s=3)
    with pytest.raises(ValueError):
        empirical_D_block(4, 3, C, V, [params.P], 5, [SeedSpec(1)] * 2)
    with pytest.raises(ValueError):
        empirical_D_block(4, 3, C, V, [params.P], 0, [SeedSpec(1)])


def test_empirical_d_matches_per_sample_oracle(monkeypatch):
    # the stacked lam_tilde and alignments of 5,000 samples equal the
    # one-sample arithmetic (norm squared as a numpy scalar) bit for bit,
    # so both estimates are byte-equal to the per-sample loop that adds
    # them in order
    import ramimo.bounds as bounds_mod
    from ramimo.bounds import _min_weighted_gaps

    params = SystemParams(n_t=4, n_s=2).with_snr_db(-10.0)  # low SNR, where lam_tilde follows every bit of the gain
    C = canonical_onb(4)
    V = rvq_codebook(4, 4, SeedSpec(56).derive("fam"))
    seed = SeedSpec(57).derive("mc")
    phi = np.abs(V.vectors.conj() @ C.vectors.T) ** 2
    n = 5000
    lam_tilde, psi = np.empty(n), np.empty((n, len(C)))
    for i, h_hat in enumerate(_empirical_d_samples(seed, 4, n)):
        gain_sq = float(np.linalg.norm(h_hat) ** 2)
        lam_sq = params.P * gain_sq / params.n_t
        lam_tilde[i] = lam_sq / (1.0 + lam_sq)
        psi[i] = np.abs(C.vectors @ np.conj(h_hat / math.sqrt(gain_sq))) ** 2
    weighted = _min_weighted_gaps(psi, phi, lam_tilde)
    d_sum = dhat_sum = 0.0
    for i in range(n):
        d_sum += float(weighted[i]) / (1.0 - float(lam_tilde[i]))
        dhat_sum += min_direction_gap(psi[i], phi)
    seen = []

    def recording(psis, phi_table, lam_tildes):
        seen.append((psis, lam_tildes))
        return _min_weighted_gaps(psis, phi_table, lam_tildes)

    monkeypatch.setattr(bounds_mod, "_min_weighted_gaps", recording)
    assert empirical_D(4, 4, C, V, params, samples=n, seed=seed) == (d_sum / n, dhat_sum / n)
    assert np.concatenate([p for p, _ in seen]).tobytes() == psi.tobytes()
    assert np.concatenate([t for _, t in seen]).tobytes() == lam_tilde.tobytes()
