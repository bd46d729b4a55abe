from itertools import combinations, permutations

import numpy as np
import pytest

from ramimo.channel import (
    SystemParams,
    UserChannel,
    effective_channel_state,
    mrc_effective_channel,
)
from ramimo.codebook import Codebook, canonical_onb, concat_codebooks, rvq_codebook
from ramimo.feedback import (
    chordal_cdi,
    compute_feedback,
    cqi_effective,
    efficient_cdi,
    feedback_vector,
    gap_sample_delta_ra,
    gap_samples_delta_ra,
    lemma1_feedback,
    lemma1_rhs,
    ra_distance,
    ra_feedback,
    raw_scale_sq,
)
from ramimo.numerics import SeedSpec, sample_complex_gaussian, sample_complex_gaussian_matrix
from ramimo.rates import rate_with_beams


def _unit(v):
    return v / np.linalg.norm(v)


def _random_eff(n_t, params, seed):
    h_hat = sample_complex_gaussian(n_t, seed)
    return effective_channel_state(h_hat, params)


def _lambda_consistent_theta(eff):
    # gain reproducing the true channel exactly when nu == h
    return float(np.sqrt(eff.lambda_sq))


def brute_force_ra_distance(eff, theta, nu, C, params, n_users):
    """Oracle: the raw definition, enumerating explicit user sets containing
    the tagged user and injective beam mappings."""
    p = np.abs(C.vectors @ np.conj(eff.h_hat)) ** 2
    q = theta * theta * raw_scale_sq(params) * np.abs(C.vectors @ np.conj(nu)) ** 2
    best = 0.0
    others = list(range(1, n_users))
    for k in range(1, params.n_s + 1):
        for rest in combinations(others, k - 1):
            users = (0,) + rest
            for beams in permutations(range(len(C)), k):
                noise = params.sigma_sq * k / params.P
                intf_t = sum(p[beams[i]] for i in range(1, k))
                intf_q = sum(q[beams[i]] for i in range(1, k))
                rt = np.log1p(p[beams[0]] / (noise + intf_t))
                rq = np.log1p(q[beams[0]] / (noise + intf_q))
                best = max(best, abs(rt - rq))
    return best


# ---------------------------------------------------------------------------
# chordal + CQI
# ---------------------------------------------------------------------------


def test_chordal_picks_member():
    params = SystemParams(n_t=2, n_s=2)
    V = canonical_onb(2)
    eff = effective_channel_state(np.array([0.0, 2.0], dtype=complex), params)
    msg = chordal_cdi(eff, V)
    assert msg.cdi_index == 1
    assert msg.cqi == pytest.approx(np.sqrt(eff.lambda_sq))


def test_chordal_tie_lowest_index():
    params = SystemParams(n_t=2, n_s=2)
    V = canonical_onb(2)
    eff = effective_channel_state(np.array([1.0, 1.0], dtype=complex) / np.sqrt(2), params)
    assert chordal_cdi(eff, V).cdi_index == 0


def test_chordal_count_matches_codebook_size():
    params = SystemParams(n_t=4, n_s=2)
    V = rvq_codebook(4, 4, SeedSpec(3))
    eff = _random_eff(4, params, SeedSpec(4).derive("h"))
    assert chordal_cdi(eff, V).scalar_product_count == 16


def test_cqi_effective_cases():
    h = np.array([1.0, 0.0], dtype=complex)
    assert cqi_effective(4.0, h, h) == pytest.approx(2.0)
    assert cqi_effective(4.0, h, np.array([0.0, 1.0], dtype=complex)) == 0.0
    nu = np.array([1.0, 1.0], dtype=complex) / np.sqrt(2)
    assert cqi_effective(4.0, h, nu) ** 2 == pytest.approx(2.0)


# ---------------------------------------------------------------------------
# rate-approximation distance
# ---------------------------------------------------------------------------


def test_ra_distance_zero_for_exact_representation():
    params = SystemParams(n_t=3, n_s=2, P=4.0, sigma_sq=0.5)
    C = canonical_onb(3)
    eff = _random_eff(3, params, SeedSpec(5).derive("h"))
    prof = ra_distance(eff, _lambda_consistent_theta(eff), eff.h, C, params)
    assert prof.value == pytest.approx(0.0, abs=1e-9)


def test_ra_distance_single_user_reduction():
    # n_s = 1 reduces to the best single-beam log-ratio mismatch
    params = SystemParams(n_t=3, n_s=1, P=2.0, sigma_sq=1.0)
    C = canonical_onb(3)
    eff = _random_eff(3, params, SeedSpec(6).derive("h"))
    nu = _unit(sample_complex_gaussian(3, SeedSpec(6).derive("nu")))
    theta = 0.7
    prof = ra_distance(eff, theta, nu, C, params)
    p = np.abs(C.vectors @ np.conj(eff.h_hat)) ** 2
    q = theta**2 * raw_scale_sq(params) * np.abs(C.vectors @ np.conj(nu)) ** 2
    noise = params.sigma_sq / params.P
    direct = np.max(np.abs(np.log1p(p / noise) - np.log1p(q / noise)))
    assert prof.value == pytest.approx(direct, abs=1e-12)


@pytest.mark.parametrize("n_t", [2, 3])
def test_ra_distance_matches_explicit_enumeration(n_t):
    params = SystemParams(n_t=n_t, n_s=n_t, P=5.0, sigma_sq=1.0)
    C = canonical_onb(n_t)
    for i in range(100):
        eff = _random_eff(n_t, params, SeedSpec(7).derive("h", n_t, i))
        nu = _unit(sample_complex_gaussian(n_t, SeedSpec(7).derive("nu", n_t, i)))
        theta = float(np.sqrt(eff.lambda_sq) * 0.8)
        prof = ra_distance(eff, theta, nu, C, params)
        oracle = brute_force_ra_distance(eff, theta, nu, C, params, n_users=n_t)
        assert prof.value == pytest.approx(oracle, abs=1e-12)


def test_gap_profile_reproduces_value():
    params = SystemParams(n_t=3, n_s=3, P=2.0)
    C = canonical_onb(3)
    eff = _random_eff(3, params, SeedSpec(8).derive("h"))
    nu = _unit(sample_complex_gaussian(3, SeedSpec(8).derive("nu")))
    prof = ra_distance(eff, 1.1, nu, C, params)
    # re-evaluate the reported configuration with the explicit-beam rate
    others = [C[j] for j in prof.interferers]
    q = 1.1 * np.sqrt(raw_scale_sq(params)) * nu
    rt = rate_with_beams(eff.h_hat, C[prof.own_beam], others, prof.n_scheduled, params)
    rh = rate_with_beams(q, C[prof.own_beam], others, prof.n_scheduled, params)
    assert abs(rt - rh) == pytest.approx(prof.value, abs=1e-12)


# ---------------------------------------------------------------------------
# full rate-approximation feedback
# ---------------------------------------------------------------------------


def test_ra_feedback_exact_member_zero_gap():
    params = SystemParams(n_t=2, n_s=2, P=3.0, sigma_sq=1.0)
    C = canonical_onb(2)
    eff = _random_eff(2, params, SeedSpec(9).derive("h"))
    V = concat_codebooks(canonical_onb(2), Codebook(eff.h[None, :], kind="member"))
    msg = ra_feedback(eff, C, V, params)
    assert msg.cdi_index == 2
    assert msg.gap == pytest.approx(0.0, abs=1e-9)
    assert msg.cqi == pytest.approx(np.sqrt(eff.lambda_sq), rel=1e-4)


def test_ra_feedback_dominates_heuristics():
    params = SystemParams(n_t=4, n_s=2, P=10.0, sigma_sq=1.0)
    C = canonical_onb(4)
    V = concat_codebooks(C, rvq_codebook(4, 3, SeedSpec(10).derive("v")))
    for i in range(50):
        eff = _random_eff(4, params, SeedSpec(11).derive("h", i))
        m_ra = ra_feedback(eff, C, V, params)
        m_ch = chordal_cdi(eff, V)
        m_l1 = lemma1_feedback(eff, C, V)
        g_ra = ra_distance(eff, m_ra.cqi, V[m_ra.cdi_index], C, params).value
        g_ch = ra_distance(eff, m_ch.cqi, V[m_ch.cdi_index], C, params).value
        g_l1 = ra_distance(eff, m_l1.cqi, V[m_l1.cdi_index], C, params).value
        assert g_ra <= g_ch + 1e-9
        assert g_ra <= g_l1 + 1e-9
        assert m_ra.gap == pytest.approx(g_ra, abs=1e-9)


def test_ra_and_chordal_decisions_differ_somewhere():
    # rotated feedback codebook: the rate-aware regions must deviate from
    # the chordal regions for some channel directions
    params = SystemParams(n_t=2, n_r=1, n_s=2, P=10.0, sigma_sq=1.0)
    C = canonical_onb(2)
    phi = np.deg2rad(25.0)
    V = Codebook(
        np.array(
            [[np.cos(phi), np.sin(phi)], [-np.sin(phi), np.cos(phi)]], dtype=complex
        ),
        kind="rotated",
    )
    disagreements = 0
    for alpha in np.linspace(0.0, np.pi, 91):
        h_hat = np.array([np.cos(alpha), np.sin(alpha)], dtype=complex)
        eff = effective_channel_state(h_hat, params)
        if ra_feedback(eff, C, V, params).cdi_index != chordal_cdi(eff, V).cdi_index:
            disagreements += 1
    assert disagreements > 0


# ---------------------------------------------------------------------------
# multi-antenna users: feedback on the MRC effective channel
# ---------------------------------------------------------------------------


def test_multiantenna_reduces_to_single_antenna():
    # a second receive antenna that hears nothing leaves the MRC filter on
    # the first, so the message is the single-antenna user's
    params = SystemParams(n_t=3, n_r=2, n_s=2, P=4.0, sigma_sq=1.0)
    C = canonical_onb(3)
    V = concat_codebooks(C, rvq_codebook(3, 3, SeedSpec(12).derive("v")))
    for i in range(20):
        H = sample_complex_gaussian_matrix(1, 3, SeedSpec(13).derive("h", i))
        m_ma = compute_feedback("ra-full", UserChannel(H=np.vstack([H, np.zeros((1, 3))])), C, V, params)
        m_sa = compute_feedback("ra-full", UserChannel(H=H), C, V, params)
        assert m_ma.cdi_index == m_sa.cdi_index
        assert m_ma.cqi == pytest.approx(m_sa.cqi, abs=1e-9)
        assert m_ma.gap == pytest.approx(m_sa.gap, abs=1e-9)


def test_multiantenna_rank_one_equivalence():
    # a rank-1 channel u0 row^T has one direction: its MRC effective channel
    # is ||u0|| conj(row) up to a phase, which no rate sees, so the message
    # is that of the single-antenna channel ||u0|| row
    params = SystemParams(n_t=3, n_r=2, n_s=2, P=4.0, sigma_sq=1.0)
    C = canonical_onb(3)
    V = concat_codebooks(C, rvq_codebook(3, 3, SeedSpec(14).derive("v")))
    row = sample_complex_gaussian(3, SeedSpec(14).derive("row"))
    u0 = np.array([1.2, 1.6j], dtype=complex)
    m_ma = compute_feedback("ra-full", UserChannel(H=np.outer(u0, row)), C, V, params)
    m_sa = compute_feedback("ra-full", UserChannel(H=2.0 * row[None, :]), C, V, params)
    assert m_ma.cdi_index == m_sa.cdi_index
    assert m_ma.cqi == pytest.approx(m_sa.cqi, rel=1e-8)
    assert m_ma.gap == pytest.approx(m_sa.gap, abs=1e-8)


def test_multiantenna_argmin_dominance():
    # on the MRC effective channel of a two-antenna user, the ra-full
    # message is at least as good as every other strategy's message
    params = SystemParams(n_t=4, n_r=2, n_s=2, P=10.0, sigma_sq=1.0)
    C = canonical_onb(4)
    V = concat_codebooks(C, rvq_codebook(4, 3, SeedSpec(15).derive("v")))
    for i in range(20):
        uc = UserChannel(H=sample_complex_gaussian_matrix(2, 4, SeedSpec(16).derive("h", i)))
        eff = mrc_effective_channel(uc, params)
        msg = compute_feedback("ra-full", uc, C, V, params)
        assert msg.gap == pytest.approx(ra_distance(eff, msg.cqi, V[msg.cdi_index], C, params).value, abs=1e-9)
        for strategy in ("chordal", "ra-efficient", "lemma1"):
            other = compute_feedback(strategy, uc, C, V, params)
            assert msg.gap <= ra_distance(eff, other.cqi, V[other.cdi_index], C, params).value + 1e-9


# ---------------------------------------------------------------------------
# efficient surrogate
# ---------------------------------------------------------------------------


def test_efficient_zero_at_member():
    params = SystemParams(n_t=2, n_s=2)
    C = canonical_onb(2)
    eff = _random_eff(2, params, SeedSpec(17).derive("h"))
    V = concat_codebooks(C, Codebook(eff.h[None, :], kind="member"))
    msg = efficient_cdi(eff, C, V)
    assert msg.cdi_index == 2
    assert msg.gap == pytest.approx(0.0, abs=1e-12)


@pytest.mark.parametrize(
    "B,expected",
    [(1, 16), (2, 32), (3, 64), (4, 128), (8, 2048)],
)
def test_efficient_scalar_product_budget(B, expected):
    params = SystemParams(n_t=4, n_s=2)
    C = concat_codebooks(canonical_onb(4), rvq_codebook(4, 2, SeedSpec(18).derive("c")))
    assert len(C) == 8
    V = rvq_codebook(4, B, SeedSpec(18).derive("v"))
    eff = _random_eff(4, params, SeedSpec(18).derive("h"))
    assert efficient_cdi(eff, C, V).scalar_product_count == expected


@pytest.mark.parametrize("B,expected", [(1, 2), (2, 4), (3, 8), (4, 16), (8, 256)])
def test_chordal_scalar_product_budget(B, expected):
    params = SystemParams(n_t=4, n_s=2)
    V = rvq_codebook(4, B, SeedSpec(19).derive("v"))
    eff = _random_eff(4, params, SeedSpec(19).derive("h"))
    assert chordal_cdi(eff, V).scalar_product_count == expected


def test_efficient_phase_invariance():
    params = SystemParams(n_t=3, n_s=2)
    C = canonical_onb(3)
    V = rvq_codebook(3, 4, SeedSpec(20).derive("v"))
    eff = _random_eff(3, params, SeedSpec(20).derive("h"))
    rotated = effective_channel_state(np.exp(0.73j) * eff.h_hat, params)
    assert efficient_cdi(eff, C, V).cdi_index == efficient_cdi(rotated, C, V).cdi_index


# ---------------------------------------------------------------------------
# constructive (best-beam constrained) strategy
# ---------------------------------------------------------------------------


def test_lemma1_exact_beam_alignment():
    params = SystemParams(n_t=3, n_s=2, P=2.0)
    C = canonical_onb(3)
    V = concat_codebooks(C, rvq_codebook(3, 2, SeedSpec(21).derive("v")))
    eff = effective_channel_state(np.array([0.0, 3.0, 0.0], dtype=complex), params)
    msg = lemma1_feedback(eff, C, V)
    assert msg.cdi_index == 1  # w* itself
    assert msg.cqi == pytest.approx(np.sqrt(eff.lambda_sq), abs=1e-12)


def test_lemma1_requires_subset():
    params = SystemParams(n_t=2, n_s=2)
    eff = _random_eff(2, params, SeedSpec(22).derive("h"))
    with pytest.raises(ValueError, match="not contained"):
        lemma1_feedback(eff, canonical_onb(2), rvq_codebook(2, 3, SeedSpec(22).derive("v")))


def test_lemma1_constrained_pick_differs_from_chordal():
    # h sits 20 degrees off the best beam; the chordal-closest codeword lies
    # beyond h (22 degrees) and violates the best-beam constraint, while a
    # 5-degree codeword satisfies it
    params = SystemParams(n_t=2, n_s=2, P=10.0)
    C = canonical_onb(2)

    def direction(deg):
        a = np.deg2rad(deg)
        return [np.cos(a), np.sin(a)]

    V = Codebook(np.array([direction(0), direction(90), direction(5), direction(22)], dtype=complex))
    eff = effective_channel_state(np.array(direction(20), dtype=complex), params)
    msg_l1 = lemma1_feedback(eff, C, V)
    msg_ch = chordal_cdi(eff, V)
    assert msg_ch.cdi_index == 3
    assert msg_l1.cdi_index == 2


def test_lemma1_rhs_zero_when_nu_equals_h():
    params = SystemParams(n_t=3, n_s=3)
    C = canonical_onb(3)
    eff = _random_eff(3, params, SeedSpec(23).derive("h"))
    assert lemma1_rhs(eff, eff.h, C) == pytest.approx(0.0, abs=1e-12)


def test_lemma1_rhs_hand_instance():
    # n_t = 2, psi = (0.8, 0.2), phi = (0.9, 0.1), lambda^2 = 1:
    # w* = 0, eta = 0.8, theta = 0.9, only w = 1 contributes:
    # num = 1 * (|0.2 - 0.1| + (0.1/0.9) * |0.9 - 0.8|) = 0.1 + 0.1/9
    # den = 1 + 1 * (1 - max(0.2, 0.1)) = 1.8
    params = SystemParams(n_t=2, n_s=2, P=2.0, sigma_sq=1.0)
    h_hat = np.array([np.sqrt(0.8), np.sqrt(0.2)], dtype=complex)  # lambda^2 = 1
    eff = effective_channel_state(h_hat, params)
    assert eff.lambda_sq == pytest.approx(1.0)
    nu = np.array([np.sqrt(0.9), np.sqrt(0.1)], dtype=complex)
    expected = np.log1p((0.1 + (0.1 / 0.9) * 0.1) / 1.8)
    assert lemma1_rhs(eff, nu, canonical_onb(2)) == pytest.approx(expected, abs=1e-12)


@pytest.mark.parametrize("n_t", [2, 3, 4])
def test_lemma1_bound_holds_on_random_draws(n_t):
    # the constructive strategy's full-set worst-case gap never exceeds the
    # closed-form bound (the acceptance suite runs this at 10^4 draws)
    params = SystemParams(n_t=n_t, n_s=n_t, P=10.0, sigma_sq=1.0)
    C = canonical_onb(n_t)
    V = concat_codebooks(C, rvq_codebook(n_t, 3, SeedSpec(24).derive("v", n_t)))
    for i in range(300):
        eff = _random_eff(n_t, params, SeedSpec(25).derive("h", n_t, i))
        msg = lemma1_feedback(eff, C, V)
        gap = ra_distance(eff, msg.cqi, V[msg.cdi_index], C, params, sizes=(n_t,)).value
        rhs = lemma1_rhs(eff, V[msg.cdi_index], C)
        assert gap <= rhs + 1e-9


# ---------------------------------------------------------------------------
# worst-case gap sampling
# ---------------------------------------------------------------------------


def test_gap_sample_zero_for_perfect_feedback():
    params = SystemParams(n_t=2, n_s=2, P=5.0)
    C = canonical_onb(2)
    effs, msgs = {}, {}
    vecs = []
    for m in range(2):
        eff = _random_eff(2, params, SeedSpec(26).derive("h", m))
        effs[m] = eff
        vecs.append(eff.h)
    V = Codebook(np.array(vecs))
    for m in range(2):
        msgs[m] = type(chordal_cdi(effs[m], V))(
            cdi_index=m,
            cqi=float(np.sqrt(effs[m].lambda_sq)),
            strategy_tag="oracle",
            scalar_product_count=0,
        )
    assert gap_sample_delta_ra(effs, msgs, C, V, params, {0, 1}) == pytest.approx(0.0, abs=1e-9)


def test_gap_sample_single_user_doubles_distance():
    params = SystemParams(n_t=2, n_s=1, P=5.0)
    C = canonical_onb(2)
    eff = _random_eff(2, params, SeedSpec(27).derive("h"))
    V = concat_codebooks(C, rvq_codebook(2, 2, SeedSpec(27).derive("v")))
    msg = ra_feedback(eff, C, V, params)
    single = ra_distance(eff, msg.cqi, V[msg.cdi_index], C, params).value
    total = gap_sample_delta_ra({0: eff}, {0: msg}, C, V, params, {0})
    assert total == pytest.approx(2.0 * single, abs=1e-12)


def test_gap_sample_sums_over_union():
    params = SystemParams(n_t=2, n_s=2, P=5.0)
    C = canonical_onb(2)
    V = concat_codebooks(C, rvq_codebook(2, 2, SeedSpec(28).derive("v")))
    effs, msgs = {}, {}
    for m in range(3):
        effs[m] = _random_eff(2, params, SeedSpec(28).derive("h", m))
        msgs[m] = ra_feedback(effs[m], C, V, params)
    expected = 2.0 * sum(
        ra_distance(effs[m], msgs[m].cqi, V[msgs[m].cdi_index], C, params).value for m in (0, 2)
    )
    assert gap_sample_delta_ra(effs, msgs, C, V, params, {0, 2}) == pytest.approx(expected, abs=1e-12)


def test_gap_samples_stack_matches_per_user_distances():
    # one stacked pass over draws at -20..100 dB, with empty, partial and
    # full user sets, gives each draw 2 * the sum of its users' ra_distance
    # in sorted user order, bit for bit, as does the one-draw case
    C = canonical_onb(3)
    V = concat_codebooks(C, rvq_codebook(3, 3, SeedSpec(29).derive("v")))
    samples = []
    for i, (snr_db, users) in enumerate([(-20.0, {2, 0}), (40.0, set()), (100.0, {3, 1, 0, 2}), (0.0, {1})]):
        params = SystemParams(n_t=3, n_s=3).with_snr_db(snr_db)
        effs = {m: _random_eff(3, params, SeedSpec(29).derive(i, m)) for m in range(4)}
        msgs = {m: ra_feedback(effs[m], C, V, params) for m in range(4)}
        msgs[3] = type(msgs[3])(cdi_index=5, cqi=0.0, strategy_tag="zero", scalar_product_count=0)
        samples.append((effs, msgs, params, users))
    got = gap_samples_delta_ra(samples, C, V)
    for (effs, msgs, params, users), value in zip(samples, got):
        total = 0.0
        for m in sorted(users):
            total += ra_distance(effs[m], msgs[m].cqi, V[msgs[m].cdi_index], C, params).value
        assert value == 2.0 * total
        assert gap_sample_delta_ra(effs, msgs, C, V, params, users) == value
    assert got[1] == 0.0
    assert gap_samples_delta_ra([], C, V) == []


def test_ra_feedback_frequency_averaged_degenerate_chain():
    # rho = 1 makes all subcarriers identical: averaged true rates collapse
    # to the single-carrier case and the decision must match
    from ramimo.channel import draw_user_channel, per_subcarrier_effective_channels
    params = SystemParams(n_t=3, n_r=1, n_s=2, P=10.0)
    C = canonical_onb(3)
    V = concat_codebooks(C, rvq_codebook(3, 3, SeedSpec(60).derive("v")))
    uc_flat = draw_user_channel(params, F=1, rho=0.0, seed=SeedSpec(61).derive("c"))
    uc_wide = UserChannel(
        H=uc_flat.H, subcarriers=np.repeat(uc_flat.H[None, :, :], 4, axis=0), rho=1.0
    )
    m_flat = compute_feedback("ra-full", uc_flat, C, V, params)
    m_wide = compute_feedback("ra-full", uc_wide, C, V, params)
    assert m_flat.cdi_index == m_wide.cdi_index
    assert m_flat.cqi == pytest.approx(m_wide.cqi, abs=1e-9)


def test_ra_feedback_averaged_true_rates_change_decision_possible():
    # with genuinely different subcarriers the averaged objective is not the
    # flat objective; the call must still return a consistent message
    from ramimo.channel import draw_user_channel, mrc_effective_channel, per_subcarrier_effective_channels

    params = SystemParams(n_t=3, n_r=1, n_s=2, P=10.0)
    C = canonical_onb(3)
    V = concat_codebooks(C, rvq_codebook(3, 3, SeedSpec(62).derive("v")))
    uc = draw_user_channel(params, F=6, rho=0.7, seed=SeedSpec(63).derive("c"))
    eff = mrc_effective_channel(uc, params)
    subs = per_subcarrier_effective_channels(uc, params)
    msg = ra_feedback(eff, C, V, params, subcarrier_effs=subs)
    assert 0 <= msg.cdi_index < len(V)
    assert msg.cqi >= 0.0
    assert msg.gap >= 0.0


def test_feedback_vector_reproduces_exact_channel():
    params = SystemParams(n_t=3, n_s=2, P=7.0, sigma_sq=0.4)
    eff = _random_eff(3, params, SeedSpec(29).derive("h"))
    V = Codebook(eff.h[None, :])
    msg = chordal_cdi(eff, V)
    vec = feedback_vector(msg, V, params)
    assert np.linalg.norm(vec) == pytest.approx(np.linalg.norm(eff.h_hat), abs=1e-9)


def test_ra_feedback_batch_matches_single_calls():
    # users at different SNRs, flat and frequency-selective, in one batch:
    # every message equals the one-problem call exactly
    from ramimo.channel import draw_user_channel, per_subcarrier_effective_channels
    from ramimo.feedback import ra_feedback_batch

    base = SystemParams(n_t=3, n_r=1, n_s=3, P=1.0)
    C = canonical_onb(3)
    V = concat_codebooks(C, rvq_codebook(3, 4, SeedSpec(64).derive("v")))
    problems = []
    for m, snr in enumerate((0.0, 20.0, 60.0, 100.0)):
        params = base.with_snr_db(snr)
        uc = draw_user_channel(params, F=1 + 3 * (m % 2), rho=0.8, seed=SeedSpec(65).derive("c", m))
        subs = per_subcarrier_effective_channels(uc, params) if uc.F > 1 else None
        problems.append((mrc_effective_channel(uc, params), params, subs))
    batch = ra_feedback_batch(problems, C, V)
    single = [ra_feedback(eff, C, V, params, subcarrier_effs=subs) for eff, params, subs in problems]
    assert batch == single


def test_ra_feedback_batch_rejects_mixed_configuration_tables():
    from ramimo.feedback import ra_feedback_batch

    C = canonical_onb(3)
    V = concat_codebooks(C, rvq_codebook(3, 3, SeedSpec(66).derive("v")))
    problems = []
    for n_s in (2, 3):
        params = SystemParams(n_t=3, n_s=n_s, P=5.0)
        problems.append((_random_eff(3, params, SeedSpec(66).derive("h", n_s)), params, None))
    with pytest.raises(ValueError, match="scheduling sizes"):
        ra_feedback_batch(problems, C, V)


# ---------------------------------------------------------------------------
# gain solver against a dense log-gain grid, up to 100 dB
# ---------------------------------------------------------------------------


def _grid_min_gap(distance, n_v, x0):
    """Oracle: min over codewords j and a dense grid of x = log theta^2 of
    distance(theta, j).

    Each codeword starts on x0 +- 12 (step 0.5); its best grid point is
    refined three times, twenty-fold each, for as long as the codeword
    can still beat the best value found.  Rates change by less than |dx|,
    so a grid of step s cannot miss a value lower than its own minimum
    minus s / 2.
    """
    best = np.inf
    for j in range(n_v):
        step = 0.5
        xs = x0 + np.arange(-12.0, 12.0 + step / 2, step)
        for _ in range(4):
            vals = np.array([distance(np.exp(0.5 * x), j) for x in xs])
            best = min(best, float(vals.min()))
            if vals.min() - step / 2 > best:
                break
            xs = xs[np.argmin(vals)] + np.linspace(-step, step, 41)
            step /= 20
    return best


@pytest.mark.parametrize("snr_db", [60.0, 80.0, 100.0])
@pytest.mark.parametrize("n_t,B", [(3, 6), (4, 4)])
def test_ra_feedback_matches_log_gain_grid_at_high_snr(n_t, B, snr_db):
    params = SystemParams(n_t=n_t, n_s=n_t, P=1.0).with_snr_db(snr_db)
    C = canonical_onb(n_t)
    V = concat_codebooks(C, rvq_codebook(n_t, B, SeedSpec(70).derive("v", n_t)))
    for i in range(3):
        eff = _random_eff(n_t, params, SeedSpec(71).derive("h", n_t, int(snr_db), i))
        msg = ra_feedback(eff, C, V, params)
        again = ra_distance(eff, msg.cqi, V[msg.cdi_index], C, params).value
        assert msg.gap == pytest.approx(again, abs=1e-10)
        oracle = _grid_min_gap(
            lambda theta, j: ra_distance(eff, theta, V[j], C, params).value, len(V), np.log(eff.lambda_sq)
        )
        assert msg.gap <= oracle + 1e-9


@pytest.mark.parametrize("snr_db", [60.0, 80.0, 100.0])
def test_multiantenna_matches_log_gain_grid_at_high_snr(snr_db):
    params = SystemParams(n_t=3, n_r=2, n_s=2, P=1.0).with_snr_db(snr_db)
    C = canonical_onb(3)
    V = concat_codebooks(C, rvq_codebook(3, 3, SeedSpec(72).derive("v")))
    for i in range(2):
        uc = UserChannel(H=sample_complex_gaussian_matrix(2, 3, SeedSpec(73).derive("h", int(snr_db), i)))
        eff = mrc_effective_channel(uc, params)
        msg = compute_feedback("ra-full", uc, C, V, params)
        again = ra_distance(eff, msg.cqi, V[msg.cdi_index], C, params).value
        assert msg.gap == pytest.approx(again, abs=1e-10)
        oracle = _grid_min_gap(
            lambda theta, j: ra_distance(eff, theta, V[j], C, params).value, len(V), np.log(eff.lambda_sq)
        )
        assert msg.gap <= oracle + 1e-9


@pytest.mark.parametrize("snr_db", [10.0, 100.0])
def test_ra_feedback_zero_channel(snr_db):
    params = SystemParams(n_t=3, n_s=3, P=1.0).with_snr_db(snr_db)
    C = canonical_onb(3)
    V = concat_codebooks(C, rvq_codebook(3, 3, SeedSpec(74).derive("v")))
    msg = compute_feedback("ra-full", UserChannel(H=np.zeros((1, 3), dtype=complex)), C, V, params)
    assert np.isfinite(msg.cqi) and msg.cqi >= 0.0
    assert msg.gap == pytest.approx(0.0, abs=1e-12)


@pytest.mark.parametrize("snr_db", [10.0, 100.0])
def test_ra_feedback_duplicated_codeword_picks_lower_index(snr_db):
    params = SystemParams(n_t=3, n_s=3, P=1.0).with_snr_db(snr_db)
    C = canonical_onb(3)
    V = concat_codebooks(C, rvq_codebook(3, 3, SeedSpec(75).derive("v")))
    for i in range(10):
        eff = _random_eff(3, params, SeedSpec(76).derive("h", int(snr_db), i))
        best = ra_feedback(eff, C, V, params)
        dup = V.vectors[best.cdi_index][None, :]
        front = ra_feedback(eff, C, Codebook(np.vstack([dup, V.vectors])), params)
        back = ra_feedback(eff, C, Codebook(np.vstack([V.vectors, dup])), params)
        assert front.cdi_index == 0
        assert back.cdi_index == best.cdi_index
        assert front.gap == pytest.approx(best.gap, abs=1e-12)
        assert back.gap == best.gap


# ---------------------------------------------------------------------------
# messages independent of grouping and of codeword pruning
# ---------------------------------------------------------------------------


@pytest.mark.parametrize(
    "system,B,F,snrs,users",
    [
        ({"n_t": 3, "n_s": 3}, 6, 1, np.arange(0.0, 101.0, 10.0), 8),  # criterion-7 config
        ({"n_t": 4, "n_s": 4}, 4, 1, np.arange(0.0, 101.0, 20.0), 8),
        ({"n_t": 4, "n_s": 2}, 4, 4, (0.0, 30.0, 100.0), 10),
        ({"n_t": 8, "n_s": 4}, 4, 1, (10.0, 60.0), 5),
    ],
)
def test_ra_feedback_batch_independent_of_grouping_and_pruning(monkeypatch, system, B, F, snrs, users):
    # The search groups problems by _BATCH_ELEMENTS and drops losing
    # codewords mid-search, so it holds a different number of columns from
    # pass to pass; every (cdi_index, cqi, gap) must stay bit-identical.
    import ramimo.feedback as fb
    import ramimo.numerics as nm
    from ramimo.channel import per_subcarrier_effective_channels
    from ramimo.harness import SimConfig, _Context

    ctx = _Context(
        SimConfig.from_dict(
            {
                "system": {**system, "n_r": 1},
                "num_users": users,
                "snr_db_list": list(snrs),
                "B": B,
                "F": F,
                "feedback_codebook": {"kind": "rvq-union-tx"},
                "master_seed": 77,
            }
        )
    )
    problems = [
        (mrc_effective_channel(uc, params), params, per_subcarrier_effective_channels(uc, params) if F > 1 else None)
        for channels in ctx.channels(range(2))
        for params in ctx.params_by_snr
        for uc in channels.values()
    ]
    zero = UserChannel(H=np.zeros((1, system["n_t"]), dtype=complex))
    problems.append((mrc_effective_channel(zero, ctx.params_by_snr[-1]), ctx.params_by_snr[-1], None))

    def solve(elements, margin):
        monkeypatch.setattr(fb, "_BATCH_ELEMENTS", elements)
        monkeypatch.setattr(nm, "PRUNE_MARGIN", margin)
        return [(m.cdi_index, m.cqi, m.gap) for m in fb.ra_feedback_batch(problems, ctx.C, ctx.V, phi_table=ctx.phi)]

    default = fb._BATCH_ELEMENTS
    reference = solve(default, np.inf)  # nothing pruned
    for elements in (1, 1 << 14, default):
        assert solve(elements, nm.PRUNE_MARGIN) == reference


@pytest.mark.parametrize("n_c,n_s", [(3, 3), (4, 4), (8, 4), (8, 5)])
def test_interference_sum_is_column_stable(n_c, n_s):
    # the pruned search evaluates ever fewer columns, down to one; each
    # column's interference must equal the beam-order sum whatever the
    # column count (a BLAS product took another path for one column)
    from ramimo.feedback import _interference, _interferer_table, scheduling_configs

    _, mask, _, intf = scheduling_configs(n_c, tuple(range(1, n_s + 1)))
    rng = np.random.default_rng(n_c * 10 + n_s)
    n = 40
    powers = np.vstack([rng.random((n_c, n)) * np.exp(rng.uniform(-30, 30, size=(1, n))), np.zeros(n)])
    table = _interferer_table(mask)
    full = _interference(powers, table)
    for j in range(n):
        ref = []
        for beams in intf:
            total = 0.0
            for b in beams:
                total += float(powers[b, j])
            ref.append(total)
        assert full[:, j].tolist() == ref
        assert _interference(powers[:, j : j + 1], table)[:, 0].tolist() == ref


@pytest.mark.parametrize("n_t,n_s", [(3, 2), (4, 4)])
def test_multiantenna_independent_of_pruning(monkeypatch, n_t, n_s):
    import ramimo.numerics as nm

    C = canonical_onb(n_t)
    V = concat_codebooks(C, rvq_codebook(n_t, 4, SeedSpec(78).derive("v", n_t)))
    for snr in (0.0, 40.0, 100.0):
        params = SystemParams(n_t=n_t, n_r=2, n_s=n_s, P=1.0).with_snr_db(snr)
        for i in range(3):
            uc = UserChannel(H=sample_complex_gaussian_matrix(2, n_t, SeedSpec(79).derive(n_t, int(snr), i)))
            pruned = compute_feedback("ra-full", uc, C, V, params)
            with monkeypatch.context() as mp:
                mp.setattr(nm, "PRUNE_MARGIN", np.inf)
                plain = compute_feedback("ra-full", uc, C, V, params)
            assert pruned == plain
