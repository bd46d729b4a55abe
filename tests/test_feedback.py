from itertools import combinations, permutations

import numpy as np
import pytest

from ramimo.channel import (
    SystemParams,
    UserChannel,
    draw_channel_stack,
    effective_block,
    effective_channel_state,
    mrc_effective_channel,
    user_channels_block,
)
from ramimo.codebook import Codebook, canonical_onb, concat_codebooks, random_unitary, rvq_codebook
from ramimo.feedback import (
    FeedbackMessage,
    beam_powers,
    chordal_cdi,
    chordal_feedback_block,
    compute_feedback,
    cross_gram,
    efficient_cdi,
    efficient_feedback_block,
    feedback_vector,
    feedback_vectors,
    gap_sample_delta_ra,
    gap_samples_delta_ra,
    lemma1_feedback,
    lemma1_feedback_block,
    lemma1_rhs,
    ra_distance,
    ra_feedback_batch,
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
                noise = k / params.P
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
    # theta^2 = lambda^2 |<h, nu>|^2 over the reported codeword nu
    h = np.array([1.0, 0.0], dtype=complex)

    def cqi(nu):
        return chordal_feedback_block(h[None], [4.0], Codebook(nu[None]))[1][0]

    assert cqi(h) == pytest.approx(2.0)
    assert cqi(np.array([0.0, 1.0], dtype=complex)) == 0.0
    nu = np.array([1.0, 1.0], dtype=complex) / np.sqrt(2)
    assert cqi(nu) ** 2 == pytest.approx(2.0)


def _reference_chordal(eff, V):
    """Scalar chordal feedback of one user: the first codeword maximizing
    |<nu, h>|^2, and theta = sqrt(lambda^2 |<h, nu>|^2) squared as a numpy
    scalar."""
    idx = int(np.argmax(np.abs(V.vectors @ np.conj(eff.h)) ** 2))
    return idx, float(np.sqrt(eff.lambda_sq * np.abs(np.vdot(eff.h, V[idx])) ** 2))


@pytest.mark.parametrize("n_t, B", [(4, 4), (3, 6), (2, 1)])
def test_chordal_block_matches_scalar_oracle(n_t, B):
    # 6,000 channels at -20..100 dB, on an rvq codebook with every
    # codeword duplicated (argmax ties go to the first copy), with zero
    # channels mixed in: the stacked pass equals the scalar oracle bit for
    # bit, and chordal_cdi is its one-row case
    base = rvq_codebook(n_t, B, SeedSpec(61).derive(n_t))
    V = concat_codebooks(base, base)
    effs = []
    for i in range(6000):
        params = SystemParams(n_t=n_t, n_s=min(2, n_t)).with_snr_db((-20.0, 0.0, 30.0, 60.0, 100.0)[i % 5])
        h_hat = np.zeros(n_t, dtype=complex) if i % 97 == 0 else sample_complex_gaussian(n_t, SeedSpec(62).derive(i))
        effs.append(effective_channel_state(h_hat, params))
    idx, theta = chordal_feedback_block(np.array([e.h for e in effs]), np.array([e.lambda_sq for e in effs]), V)
    assert len(idx) == 6000
    for i, t, eff in zip(idx.tolist(), theta.tolist(), effs):
        assert (i, t) == _reference_chordal(eff, V)
        assert i < len(base)
    for eff in effs[:300]:
        msg = chordal_cdi(eff, V)
        assert (msg.cdi_index, msg.cqi, msg.scalar_product_count) == (*_reference_chordal(eff, V), len(V))
    assert chordal_cdi(effs[0], V).cqi == 0.0


def _reference_efficient(eff, C, V):
    """Per-row ra-efficient feedback, as computed one user at a time before
    the stacked pass: (index, CQI, gap)."""
    psi = beam_powers(eff.h, C)
    d = np.max(np.abs(psi[None, :] - cross_gram(V, C)), axis=1)
    idx = int(np.argmin(d))
    return idx, float(np.sqrt(eff.lambda_sq * np.abs(np.vdot(eff.h, V[idx])) ** 2)), float(d[idx])


def _reference_lemma1(eff, C, V):
    """Per-row lemma1 feedback, as computed one user at a time before the
    stacked pass: (index, CQI)."""
    psi = beam_powers(eff.h, C)
    w_star = int(np.argmax(psi))
    eta = float(psi[w_star])
    theta_w = np.abs(V.vectors @ np.conj(C[w_star])) ** 2
    feasible = theta_w >= eta - 1e-12
    align = np.abs(V.vectors @ np.conj(eff.h)) ** 2
    idx = int(np.argmax(np.where(feasible, align, -1.0)))
    lam_t = eff.lambda_sq / (1.0 + eff.lambda_sq)
    th = float(theta_w[idx])
    tt = min(lam_t * eta / th, 1.0 - 1e-12) if th > 0 else 0.0
    return idx, float(np.sqrt(tt / (1.0 - tt)))


@pytest.mark.parametrize("n_t, B, unitary", [(4, 3, False), (3, 4, True), (2, 2, False)])
def test_efficient_and_lemma1_blocks_match_per_row_oracles(n_t, B, unitary):
    # 5,600 rows at 0..100 dB, from n_r = 1 and n_r = 2 users under their
    # MRC filters, with zero channels (lambda^2 = 0, h = e_1) mixed in, on
    # a feedback codebook holding every codeword twice (argmin and argmax
    # ties go to the first copy): each stacked pass equals its per-row
    # oracle exactly, and efficient_cdi and lemma1_feedback are its
    # one-row cases
    C = random_unitary(n_t, SeedSpec(80).derive(n_t)) if unitary else canonical_onb(n_t)
    base = concat_codebooks(C, rvq_codebook(n_t, B, SeedSpec(81).derive(n_t)))
    V = concat_codebooks(base, base)
    effs = []
    for n_r in (1, 2):
        params = SystemParams(n_t=n_t, n_r=n_r, n_s=min(2, n_t))
        H, sub = draw_channel_stack(params, 1, 0.0, [SeedSpec(82).derive(n_t, n_r, i) for i in range(2800)], 1)
        for i, h_hat in enumerate(effective_block(H, sub).h_hat):
            h_hat = np.zeros(n_t, dtype=complex) if i % 97 == 0 else h_hat
            effs.append(effective_channel_state(h_hat, params.with_snr_db(10.0 * (i % 11))))
    h, lam = np.array([e.h for e in effs]), np.array([e.lambda_sq for e in effs])
    assert len(effs) >= 5000 and (lam == 0.0).sum() >= 50
    idx, theta, gap = efficient_feedback_block(h, lam, C, V, phi_table=cross_gram(V, C))
    for row, eff in zip(zip(idx.tolist(), theta.tolist(), gap.tolist()), effs):
        assert row == _reference_efficient(eff, C, V)
        assert row[0] < len(base)
    idx, theta = lemma1_feedback_block(h, lam, C, V)
    for row, eff in zip(zip(idx.tolist(), theta.tolist()), effs):
        assert row == _reference_lemma1(eff, C, V)
        assert row[0] < len(base)
    for eff in effs[::97][:30] + effs[1:200]:
        msg = efficient_cdi(eff, C, V)
        assert (msg.cdi_index, msg.cqi, msg.gap) == _reference_efficient(eff, C, V)
        msg = lemma1_feedback(eff, C, V)
        assert (msg.cdi_index, msg.cqi) == _reference_lemma1(eff, C, V)


def test_feedback_vectors_match_scalar_oracle():
    # each row is cqi * sqrt(raw_scale_sq) times the codeword, the scalar
    # association order, over 6,000 rows with per-row scales
    V = rvq_codebook(4, 4, SeedSpec(63))
    rng = np.random.default_rng(64)
    cdi = rng.integers(0, len(V), 6000)
    cqi = np.exp(rng.uniform(-12.0, 12.0, 6000))
    scale_sq = np.exp(rng.uniform(-25.0, 5.0, 6000))
    got = feedback_vectors(cdi, cqi, V, scale_sq)
    for row, i, t, s in zip(got, cdi.tolist(), cqi.tolist(), scale_sq.tolist()):
        assert row.tobytes() == (t * np.sqrt(s) * V[i]).tobytes()
    params = SystemParams(n_t=4, n_s=2, P=17.5)
    msg = chordal_cdi(_random_eff(4, params, SeedSpec(65)), V)
    expected = msg.cqi * np.sqrt(raw_scale_sq(params)) * V[msg.cdi_index]
    assert feedback_vector(msg, V, params).tobytes() == expected.tobytes()


# ---------------------------------------------------------------------------
# rate-approximation distance
# ---------------------------------------------------------------------------


def test_ra_distance_zero_for_exact_representation():
    params = SystemParams(n_t=3, n_s=2, P=8.0)
    C = canonical_onb(3)
    eff = _random_eff(3, params, SeedSpec(5).derive("h"))
    prof = ra_distance(eff, _lambda_consistent_theta(eff), eff.h, C, params)
    assert prof.value == pytest.approx(0.0, abs=1e-9)


def test_ra_distance_single_user_reduction():
    # n_s = 1 reduces to the best single-beam log-ratio mismatch
    params = SystemParams(n_t=3, n_s=1, P=2.0)
    C = canonical_onb(3)
    eff = _random_eff(3, params, SeedSpec(6).derive("h"))
    nu = _unit(sample_complex_gaussian(3, SeedSpec(6).derive("nu")))
    theta = 0.7
    prof = ra_distance(eff, theta, nu, C, params)
    p = np.abs(C.vectors @ np.conj(eff.h_hat)) ** 2
    q = theta**2 * raw_scale_sq(params) * np.abs(C.vectors @ np.conj(nu)) ** 2
    noise = 1.0 / params.P
    direct = np.max(np.abs(np.log1p(p / noise) - np.log1p(q / noise)))
    assert prof.value == pytest.approx(direct, abs=1e-12)


@pytest.mark.parametrize("n_t", [2, 3])
def test_ra_distance_matches_explicit_enumeration(n_t):
    params = SystemParams(n_t=n_t, n_s=n_t, P=5.0)
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
    params = SystemParams(n_t=2, n_s=2, P=3.0)
    C = canonical_onb(2)
    eff = _random_eff(2, params, SeedSpec(9).derive("h"))
    V = concat_codebooks(canonical_onb(2), Codebook(eff.h[None, :]))
    cdi, cqi, gap = (a[0] for a in ra_feedback_batch(eff.h_hat[None, None], [params], C, V))
    assert cdi == 2
    assert gap == pytest.approx(0.0, abs=1e-9)
    assert cqi == pytest.approx(np.sqrt(eff.lambda_sq), rel=1e-4)


def test_ra_feedback_dominates_heuristics():
    params = SystemParams(n_t=4, n_s=2, P=10.0)
    C = canonical_onb(4)
    V = concat_codebooks(C, rvq_codebook(4, 3, SeedSpec(10).derive("v")))
    for i in range(50):
        eff = _random_eff(4, params, SeedSpec(11).derive("h", i))
        cdi, cqi, gap = (a[0] for a in ra_feedback_batch(eff.h_hat[None, None], [params], C, V))
        m_ch = chordal_cdi(eff, V)
        m_l1 = lemma1_feedback(eff, C, V)
        g_ra = ra_distance(eff, cqi, V[cdi], C, params).value
        g_ch = ra_distance(eff, m_ch.cqi, V[m_ch.cdi_index], C, params).value
        g_l1 = ra_distance(eff, m_l1.cqi, V[m_l1.cdi_index], C, params).value
        assert g_ra <= g_ch + 1e-9
        assert g_ra <= g_l1 + 1e-9
        assert gap == pytest.approx(g_ra, abs=1e-9)


def test_ra_and_chordal_decisions_differ_somewhere():
    # rotated feedback codebook: the rate-aware regions must deviate from
    # the chordal regions for some channel directions
    params = SystemParams(n_t=2, n_r=1, n_s=2, P=10.0)
    C = canonical_onb(2)
    phi = np.deg2rad(25.0)
    V = Codebook(
        np.array(
            [[np.cos(phi), np.sin(phi)], [-np.sin(phi), np.cos(phi)]], dtype=complex
        ),
    )
    disagreements = 0
    for alpha in np.linspace(0.0, np.pi, 91):
        h_hat = np.array([np.cos(alpha), np.sin(alpha)], dtype=complex)
        eff = effective_channel_state(h_hat, params)
        if ra_feedback_batch(eff.h_hat[None, None], [params], C, V)[0][0] != chordal_cdi(eff, V).cdi_index:
            disagreements += 1
    assert disagreements > 0


# ---------------------------------------------------------------------------
# multi-antenna users: feedback on the MRC effective channel
# ---------------------------------------------------------------------------


def test_multiantenna_reduces_to_single_antenna():
    # a second receive antenna that hears nothing leaves the MRC filter on
    # the first, so the message is the single-antenna user's
    params = SystemParams(n_t=3, n_r=2, n_s=2, P=4.0)
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
    params = SystemParams(n_t=3, n_r=2, n_s=2, P=4.0)
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
    params = SystemParams(n_t=4, n_r=2, n_s=2, P=10.0)
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
    V = concat_codebooks(C, Codebook(eff.h[None, :]))
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
    params = SystemParams(n_t=2, n_s=2, P=2.0)
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
    params = SystemParams(n_t=n_t, n_s=n_t, P=10.0)
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
        msgs[m] = FeedbackMessage(cdi_index=m, cqi=float(np.sqrt(effs[m].lambda_sq)), scalar_product_count=0)
    assert gap_sample_delta_ra(effs, msgs, C, V, params, {0, 1}) == pytest.approx(0.0, abs=1e-9)


def test_gap_sample_single_user_doubles_distance():
    params = SystemParams(n_t=2, n_s=1, P=5.0)
    C = canonical_onb(2)
    eff = _random_eff(2, params, SeedSpec(27).derive("h"))
    V = concat_codebooks(C, rvq_codebook(2, 2, SeedSpec(27).derive("v")))
    cdi, cqi, _ = ra_feedback_batch(eff.h_hat[None, None], [params], C, V)
    msg = FeedbackMessage(int(cdi[0]), float(cqi[0]), 0)
    single = ra_distance(eff, msg.cqi, V[msg.cdi_index], C, params).value
    total = gap_sample_delta_ra({0: eff}, {0: msg}, C, V, params, {0})
    assert total == pytest.approx(2.0 * single, abs=1e-12)


def test_gap_sample_sums_over_union():
    params = SystemParams(n_t=2, n_s=2, P=5.0)
    C = canonical_onb(2)
    V = concat_codebooks(C, rvq_codebook(2, 2, SeedSpec(28).derive("v")))
    effs = {m: _random_eff(2, params, SeedSpec(28).derive("h", m)) for m in range(3)}
    cdi, cqi, _ = ra_feedback_batch(np.array([[effs[m].h_hat] for m in range(3)]), [params] * 3, C, V)
    msgs = {m: FeedbackMessage(int(cdi[m]), float(cqi[m]), 0) for m in range(3)}
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
        cdi, cqi, _ = ra_feedback_batch(np.array([[effs[m].h_hat] for m in range(3)]), [params] * 3, C, V)
        msgs = {m: FeedbackMessage(int(cdi[m]), float(cqi[m]), 0) for m in range(3)}
        msgs[3] = FeedbackMessage(cdi_index=5, cqi=0.0, scalar_product_count=0)
        samples.append((effs, msgs, params, users))
    h_hat = np.array([[effs[m].h_hat for m in range(4)] for effs, *_ in samples])
    cdi = [[msgs[m].cdi_index for m in range(4)] for _, msgs, *_ in samples]
    cqi = [[msgs[m].cqi for m in range(4)] for _, msgs, *_ in samples]
    scheduled = [[m in users for m in range(4)] for *_, users in samples]
    got = gap_samples_delta_ra(h_hat, cdi, cqi, scheduled, [params for *_, params, _ in samples], C, V).tolist()
    for (effs, msgs, params, users), value in zip(samples, got):
        total = 0.0
        for m in sorted(users):
            total += ra_distance(effs[m], msgs[m].cqi, V[msgs[m].cdi_index], C, params).value
        assert value == 2.0 * total
        assert gap_sample_delta_ra(effs, msgs, C, V, params, users) == value
    assert got[1] == 0.0
    empty = gap_samples_delta_ra(np.zeros((0, 4, 3)), np.zeros((0, 4), int), np.zeros((0, 4)), np.zeros((0, 4), bool), [], C, V)
    assert empty.tolist() == []


def test_ra_feedback_frequency_averaged_degenerate_chain():
    # rho = 1 makes all subcarriers identical: averaged true rates collapse
    # to the single-carrier case and the decision must match
    from ramimo.channel import draw_user_channel
    params = SystemParams(n_t=3, n_r=1, n_s=2, P=10.0)
    C = canonical_onb(3)
    V = concat_codebooks(C, rvq_codebook(3, 3, SeedSpec(60).derive("v")))
    uc_flat = draw_user_channel(params, F=1, rho=0.0, seed=SeedSpec(61).derive("c"))
    uc_wide = UserChannel(H=uc_flat.H, subcarriers=np.repeat(uc_flat.H[None, :, :], 4, axis=0))
    m_flat = compute_feedback("ra-full", uc_flat, C, V, params)
    m_wide = compute_feedback("ra-full", uc_wide, C, V, params)
    assert m_flat.cdi_index == m_wide.cdi_index
    assert m_flat.cqi == pytest.approx(m_wide.cqi, abs=1e-9)


def test_ra_feedback_averaged_true_rates_change_decision_possible():
    # with genuinely different subcarriers the averaged objective is not the
    # flat objective; the call must still return a consistent message
    from ramimo.channel import draw_user_channel

    params = SystemParams(n_t=3, n_r=1, n_s=2, P=10.0)
    C = canonical_onb(3)
    V = concat_codebooks(C, rvq_codebook(3, 3, SeedSpec(62).derive("v")))
    uc = draw_user_channel(params, F=6, rho=0.7, seed=SeedSpec(63).derive("c"))
    cdi, cqi, gap = (a[0] for a in ra_feedback_batch(user_channels_block([uc]).sub_h_hat, [params], C, V))
    assert 0 <= cdi < len(V)
    assert cqi >= 0.0
    assert gap >= 0.0


def test_feedback_vector_reproduces_exact_channel():
    params = SystemParams(n_t=3, n_s=2, P=17.5)
    eff = _random_eff(3, params, SeedSpec(29).derive("h"))
    V = Codebook(eff.h[None, :])
    msg = chordal_cdi(eff, V)
    vec = feedback_vector(msg, V, params)
    assert np.linalg.norm(vec) == pytest.approx(np.linalg.norm(eff.h_hat), abs=1e-9)


def test_ra_feedback_batch_matches_single_calls():
    # users at different SNRs, flat and frequency-selective, in one batch
    # per subcarrier count: every message equals the one-problem call exactly
    from ramimo.channel import draw_user_channel

    base = SystemParams(n_t=3, n_r=1, n_s=3, P=1.0)
    C = canonical_onb(3)
    V = concat_codebooks(C, rvq_codebook(3, 4, SeedSpec(64).derive("v")))
    problems = []
    for m, snr in enumerate((0.0, 20.0, 60.0, 100.0)):
        params = base.with_snr_db(snr)
        uc = draw_user_channel(params, F=1 + 3 * (m % 2), rho=0.8, seed=SeedSpec(65).derive("c", m))
        problems.append((user_channels_block([uc]).sub_h_hat[0], params))
    for F in (1, 4):
        group = [(rows, params) for rows, params in problems if len(rows) == F]
        h_hat = np.array([rows for rows, _ in group])
        batch = zip(*(a.tolist() for a in ra_feedback_batch(h_hat, [params for _, params in group], C, V)))
        single = [tuple(a.item() for a in ra_feedback_batch(rows[None], [params], C, V)) for rows, params in group]
        assert list(batch) == single
        assert len(single) == 2


def test_ra_feedback_batch_rejects_mixed_configuration_tables():
    C = canonical_onb(3)
    V = concat_codebooks(C, rvq_codebook(3, 3, SeedSpec(66).derive("v")))
    h_hat, params = [], []
    for n_s in (2, 3):
        params.append(SystemParams(n_t=3, n_s=n_s, P=5.0))
        h_hat.append([_random_eff(3, params[-1], SeedSpec(66).derive("h", n_s)).h_hat])
    with pytest.raises(ValueError, match="scheduling sizes"):
        ra_feedback_batch(np.array(h_hat), params, C, V)


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
        cdi, cqi, gap = (a[0] for a in ra_feedback_batch(eff.h_hat[None, None], [params], C, V))
        again = ra_distance(eff, cqi, V[cdi], C, params).value
        assert gap == pytest.approx(again, abs=1e-10)
        oracle = _grid_min_gap(
            lambda theta, j: ra_distance(eff, theta, V[j], C, params).value, len(V), np.log(eff.lambda_sq)
        )
        assert gap <= oracle + 1e-9


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
        best_cdi, _, best_gap = ra_feedback_batch(eff.h_hat[None, None], [params], C, V)
        dup = V.vectors[best_cdi]
        front_cdi, _, front_gap = ra_feedback_batch(eff.h_hat[None, None], [params], C, Codebook(np.vstack([dup, V.vectors])))
        back_cdi, _, back_gap = ra_feedback_batch(eff.h_hat[None, None], [params], C, Codebook(np.vstack([V.vectors, dup])))
        assert front_cdi[0] == 0
        assert back_cdi[0] == best_cdi[0]
        assert front_gap[0] == pytest.approx(best_gap[0], abs=1e-12)
        assert back_gap[0] == best_gap[0]


# ---------------------------------------------------------------------------
# gain solver against the exact all-pairs closed form
# ---------------------------------------------------------------------------


def _configurations(n_c, n_s):
    """Every (|S|, own beam, interferer set) a scheduler could pick."""
    return [(k, j, T) for k in range(1, n_s + 1) for j in range(n_c) for T in combinations([i for i in range(n_c) if i != j], k - 1)]


def _pair_minimax_oracle(h_subs, V, C, params):
    """Oracle: the exact minimax over x = log theta^2 in [-40, 40] of the
    worst-case rate mismatch of every codeword of V, for a row whose
    true-rate channels are h_subs (F, n_t), with a lower bound that
    certifies it; two arrays over the codewords.

    With g = theta^2, configuration c's mismatch is
    e_c = log1p(A_c g / (1 + U_c g)) - r_c, which rises in g, so each
    {x : |e_c| <= t} is an interval and, by Helly's theorem in one
    dimension, the minimax is the largest over configuration pairs (a, b)
    of the pair's own minimax.  That sits where e_a + e_b = 0, at the
    positive root of (1 + T_a g)(1 + T_b g) = e^(r_a + r_b)(1 + U_a g)(1 + U_b g)
    with T = A + U, or at the bracket end the root lies beyond; there the
    pair's value is max(|e_a|, |e_b|).  The lower bound is what the two
    rising functions force at that point whatever the root: at an end,
    max(e_a, e_b) or -min(e_a, e_b); inside, the smaller of the two.
    """
    configs = _configurations(len(C), params.n_s)
    p = np.abs(h_subs @ C.vectors.conj().T) ** 2  # (F, beams)
    phi = np.abs(V.vectors @ C.vectors.conj().T) ** 2  # (codewords, beams)
    noise = np.array([k / params.P for k, _, _ in configs])
    r = np.array([np.mean(np.log1p(p[:, j] / (k / params.P + p[:, list(T)].sum(axis=1)))) for k, j, T in configs])
    scale = params.n_t / params.P
    A = scale * np.array([phi[:, j] for _, j, _ in configs]).T / noise  # (codewords, configs)
    U = scale * np.array([phi[:, list(T)].sum(axis=1) for _, _, T in configs]).T / noise
    a, b = np.triu_indices(len(configs), 1)
    growth = np.expm1(r[a] + r[b])
    Ta, Tb, Ua, Ub = A[:, a] + U[:, a], A[:, b] + U[:, b], U[:, a], U[:, b]
    c2 = Ta * Tb - (1.0 + growth) * Ua * Ub
    c1 = Ta + Tb - (1.0 + growth) * (Ua + Ub)
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        root = np.sqrt(c1 * c1 + 4.0 * c2 * growth)
        g = np.where(c1 >= 0, 2.0 * growth / (c1 + root), (root - c1) / (2.0 * c2))
        g = np.where(c2 > 0, g, np.where(c2 == 0, np.where(c1 > 0, growth / c1, np.inf), np.inf))
        x_root = np.nan_to_num(np.log(g), nan=0.0)
    x = np.clip(x_root, -40.0, 40.0)
    gain = np.exp(x)
    e_a = np.log1p(A[:, a] * gain / (1.0 + Ua * gain)) - r[a]
    e_b = np.log1p(A[:, b] * gain / (1.0 + Ub * gain)) - r[b]
    value = np.maximum(np.abs(e_a), np.abs(e_b))
    hi, lo = np.maximum(e_a, e_b), np.minimum(e_a, e_b)
    bound = np.where(x_root >= 40.0, -lo, np.where(x_root <= -40.0, hi, np.minimum(hi, -lo)))
    return value.max(axis=1), bound.max(axis=1)


@pytest.mark.parametrize("n_t,n_s,n_r,F,B", [(3, 3, 1, 1, 4), (4, 2, 2, 4, 4), (4, 4, 2, 1, 3), (3, 2, 1, 4, 5)])
def test_ra_feedback_batch_matches_all_pairs_oracle(n_t, n_s, n_r, F, B):
    # every reported gap equals the exact minimax of its codeword, and no
    # codeword does better, from 0 to 100 dB with zero channels and
    # duplicated codewords (ties go to the lower index)
    from ramimo.channel import draw_user_channel

    C = canonical_onb(n_t)
    V = concat_codebooks(C, rvq_codebook(n_t, B, SeedSpec(80).derive("v", n_t, B)))
    V = Codebook(np.vstack([V.vectors[:3], V.vectors[[n_t + 1]], V.vectors[3:], V.vectors[[0, n_t + 2]]]))
    base = SystemParams(n_t=n_t, n_r=n_r, n_s=n_s, P=1.0)
    rows, params = [], []
    for snr in (0.0, 20.0, 40.0, 60.0, 80.0, 100.0):
        p = base.with_snr_db(snr)
        for m in range(4):
            uc = draw_user_channel(p, F=F, rho=0.7, seed=SeedSpec(81).derive(n_t, F, int(snr), m))
            rows.append(user_channels_block([uc]).sub_h_hat[0])
            params.append(p)
        rows.append(np.zeros((F, n_t), dtype=complex))  # a zero channel at every SNR
        params.append(p)
    cdi, cqi, gap = ra_feedback_batch(np.array(rows), params, C, V)
    for h_subs, p, i, reported in zip(rows, params, cdi.tolist(), gap.tolist()):
        value, certified = _pair_minimax_oracle(np.asarray(h_subs), V, C, p)
        assert np.all(value - certified <= 1e-12)  # the closed form is exact
        assert abs(reported - value[i]) <= 1e-10
        assert abs(value[i] - value.min()) <= 1e-10
    assert np.all(gap[np.arange(4, len(gap), 5)] <= 1e-10)  # zero channels


def _hard_columns(degenerate):
    """40 problems at 0-100 dB, zero channels and single-user roots beyond
    both ends of the bracket among them, over a codebook with a duplicated
    codeword and, with `degenerate`, codewords with zero power on some or
    all beams: their true rates, noise terms, scales, codeword powers and
    configuration table."""
    import ramimo.feedback as fb

    rng = np.random.default_rng(82)
    C = canonical_onb(3)
    table, ks = fb.scheduling_configs(3, range(1, 4))
    V = concat_codebooks(C, rvq_codebook(3, 4, SeedSpec(82).derive("v")))
    phi = cross_gram(V, C)
    phi = np.vstack([phi, phi[[5, 5]]])
    if degenerate:
        phi = np.vstack([phi, np.zeros((1, 3)), [[0.0, 1.0, 0.0]], [[0.5, 0.0, 0.0]]])
    params = [SystemParams(n_t=3, n_s=3, P=1.0).with_snr_db(snr) for snr in rng.choice([0.0, 30.0, 60.0, 100.0], 40)]
    noise = np.array([[k / p.P for k in ks] for p in params])
    scale2 = np.array([raw_scale_sq(p) for p in params])
    h = sample_complex_gaussian_matrix(40, 3, SeedSpec(83)) * rng.uniform(0, 2, (40, 1))
    h[:4] = 0.0  # zero channels: every true rate 0
    r_true = fb._config_rates(beam_powers(h, C), table, noise)
    r_true[4:8, :3] = 200.0  # single-user roots beyond the top of the bracket
    r_true[8:12, :3] = 1e-30  # and below its bottom
    return r_true, noise, scale2, phi, table


@pytest.mark.parametrize("degenerate", [False, True])
def test_pre_pass_bounds_hold_on_random_and_degenerate_columns(monkeypatch, degenerate):
    # the pre-pass's upper bound never undercuts a problem's best, and
    # every column it drops has an unpruned solver value above its
    # problem's best by more than the solver's tolerance, on random
    # columns, zero channels, duplicated codewords, 100 dB and single-user
    # roots beyond both bracket ends; with `degenerate`, also on codewords
    # with zero power on some or all beams.  Against a dense-grid
    # single-user minimax it is the exact test: it keeps every column the
    # grid puts at or below the upper bound and drops every column the
    # grid puts clearly above the bound plus the margin.  A NaN or
    # infinite upper bound, or an infinite margin, keeps every column.
    import ramimo.feedback as fb
    from oracles import single_user_minimax
    from ramimo.numerics import LOG_GAIN_BRACKET, MINIMAX_ITERS, minimax_log_gain

    r_true, noise, scale2, phi, table = _hard_columns(degenerate)
    growth = np.expm1(r_true[:, 0] + r_true[:, 1])
    kappa = scale2 / noise[:, 0]
    with np.errstate(divide="ignore"):
        probe = np.log(growth / kappa)  # the (0, 1) root for codeword powers (1, 1, 0)
    assert np.any(probe > LOG_GAIN_BRACKET) and np.any(probe < -LOG_GAIN_BRACKET)

    excess, coefficients = fb._excess(r_true, noise, table)
    phi_cols = np.vstack([phi.T, np.zeros(len(phi))])
    dropped, upper = fb._pre_pass(excess, r_true, noise, scale2, phi_cols, per_pass=7)
    p, v = np.divmod(np.arange(len(r_true) * len(phi)), len(phi))
    _, value, _ = minimax_log_gain(excess, coefficients, (p, scale2[p], phi_cols[:, v]))
    value = value.reshape(len(r_true), len(phi))
    # a column's value is within the solver's tolerance (at most the
    # fallback's 80 * 2^-40, 7.3e-11) of its minimum
    tol = 2 * LOG_GAIN_BRACKET * 2.0**-MINIMAX_ITERS
    best = value.min(axis=1)
    assert np.all(upper >= best - tol)
    assert (value > best[:, None] + tol)[dropped].all()
    assert np.mean(dropped) > 0.5  # most columns are dropped before the search

    grid, half_step = single_user_minimax(r_true[:, :3], kappa, phi)
    assert not dropped[grid <= upper[:, None]].any()
    assert dropped[grid - half_step > upper[:, None] + fb.PRUNE_MARGIN].all()

    def unbounded(x, problem, *rest):
        e = excess(x, problem, *rest)
        return np.where(problem % 3 == 0, np.nan, np.where(problem % 3 == 1, np.inf, e))

    dropped_nan, upper_nan = fb._pre_pass(unbounded, r_true, noise, scale2, phi_cols, per_pass=7)
    kind = np.arange(len(r_true)) % 3
    assert np.isnan(upper_nan[kind == 0]).all() and np.isinf(upper_nan[kind == 1]).all()
    assert not dropped_nan[kind < 2].any() and (dropped_nan[kind == 2] == dropped[kind == 2]).all()
    monkeypatch.setattr(fb, "PRUNE_MARGIN", np.inf)
    assert not fb._pre_pass(excess, r_true, noise, scale2, phi_cols, per_pass=7)[0].any()


def _file_codebook_searches(monkeypatch):
    """The gain searches of unpruned ra-full feedback with n_r = 2 at 0-100
    dB over a `file`-style transmit codebook {e1, e2} at n_t = 3, which
    does not span, so e3 and every codeword near it have zero or little
    power on every beam; with a duplicated codeword and a zero channel at
    every SNR.  Each is (mismatch, coefficients, columns)."""
    import ramimo.feedback as fb
    from ramimo.channel import mrc_effective_channel

    C = Codebook(np.eye(3, dtype=complex)[:2])
    V = concat_codebooks(Codebook(np.eye(3, dtype=complex)), rvq_codebook(3, 4, SeedSpec(84).derive("v")))
    V = Codebook(np.vstack([V.vectors, V.vectors[[4]]]))
    rows, params = [], []
    for snr in np.arange(0.0, 101.0, 20.0):
        p = SystemParams(n_t=3, n_r=2, n_s=2, P=1.0).with_snr_db(snr)
        for m in range(5):
            H = sample_complex_gaussian_matrix(2, 3, SeedSpec(85).derive(int(snr), m)) * (m > 0)
            rows.append([mrc_effective_channel(UserChannel(H=H), p).h_hat])
            params.append(p)
    searches, search = [], fb.minimax_log_gain

    def recording_search(mismatch, coefficients, columns):
        searches.append((mismatch, coefficients, columns))
        return search(mismatch, coefficients, columns)

    with monkeypatch.context() as mp:
        mp.setattr(fb, "PRUNE_MARGIN", np.inf)
        mp.setattr(fb, "minimax_log_gain", recording_search)
        fb.ra_feedback_batch(np.array(rows), params, C, V)
    return searches


@pytest.mark.parametrize("case", ["random", "degenerate", "file-codebook"])
def test_gain_search_certifies_every_column_or_falls_back(monkeypatch, case):
    # every searched column either is certified (its value within
    # CERTIFY_TOL of its lower bound) or came out of the fallback, whose
    # value is within the plain bisection's tolerance; the lower bound
    # never exceeds the bisection's value, at 0-100 dB, with n_r = 2, zero
    # channels, duplicated and zero-power codewords and roots clipped at
    # both ends of the bracket.  With no root rounds every column takes
    # the fallback, which reproduces the plain bisection bit for bit.
    import ramimo.feedback as fb
    import ramimo.numerics as numerics
    from oracles import plain_bisection

    if case == "file-codebook":
        searches = _file_codebook_searches(monkeypatch)
    else:
        r_true, noise, scale2, phi, table = _hard_columns(case == "degenerate")
        p, v = np.divmod(np.arange(len(r_true) * len(phi)), len(phi))
        phi_cols = np.vstack([phi.T, np.zeros(len(phi))])
        searches = [(*fb._excess(r_true, noise, table), (p, scale2[p], phi_cols[:, v]))]
    tol = 2 * numerics.LOG_GAIN_BRACKET * 2.0**-numerics.MINIMAX_ITERS
    certified = fallback = 0
    for mismatch, coefficients, columns in searches:
        _, value, lower = numerics.minimax_log_gain(mismatch, coefficients, columns)
        px, pv = plain_bisection(mismatch, columns)
        ok = value - lower <= numerics.CERTIFY_TOL
        assert np.all(lower <= pv + 1e-13)
        assert np.all(value[ok] <= pv[ok] + 1e-13)
        assert np.all(value[~ok] <= pv[~ok] + tol)
        certified, fallback = certified + ok.sum(), fallback + (~ok).sum()
        with monkeypatch.context() as mp:
            mp.setattr(numerics, "MINIMAX_ROUNDS", 0)
            fx, fv, _ = numerics.minimax_log_gain(mismatch, coefficients, columns)
        assert fx.tobytes() == px.tobytes() and fv.tobytes() == pv.tobytes()
    assert certified > 0 and fallback == 0  # no column of these regimes needs the fallback


# ---------------------------------------------------------------------------
# messages independent of search chunks and of codeword pruning
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
    # The search splits the surviving columns into chunks by
    # _BATCH_ELEMENTS, and the pre-pass drops losing codewords, so a pass
    # holds a different number of columns with each setting; every
    # (cdi_index, cqi, gap) must stay bit-identical.
    import ramimo.feedback as fb
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
    sub_h_hat = effective_block(*ctx.channel_stack(range(2))).sub_h_hat
    # every (draw, SNR point, user) row, then a zero channel at the top SNR
    h_hat = np.concatenate(
        [sub_h_hat[d * users : (d + 1) * users] for d in range(2) for _ in ctx.params_by_snr]
        + [np.zeros((1, F, system["n_t"]), dtype=complex)]
    )
    params = [p for _ in range(2) for p in ctx.params_by_snr for _ in range(users)] + ctx.params_by_snr[-1:]

    def solve(elements, margin):
        monkeypatch.setattr(fb, "_BATCH_ELEMENTS", elements)
        monkeypatch.setattr(fb, "PRUNE_MARGIN", margin)
        out = fb.ra_feedback_batch(h_hat, params, ctx.C, ctx.V, phi_table=ctx.phi)
        return list(zip(*(a.tolist() for a in out)))

    default, margin = fb._BATCH_ELEMENTS, fb.PRUNE_MARGIN  # read before `solve` patches them
    reference = solve(default, np.inf)  # nothing pruned
    for elements in (1, 1 << 14, default):
        assert solve(elements, margin) == reference


@pytest.mark.parametrize("n_c,n_s", [(3, 3), (4, 4), (8, 4), (8, 5)])
def test_interference_sum_is_column_stable(n_c, n_s):
    # the pruned search evaluates ever fewer columns, down to one; each
    # column's interference must equal the beam-order sum whatever the
    # column count (a BLAS product took another path for one column), and
    # the true rates must read the same table and add in the same order
    from ramimo.feedback import _config_rates, _interference, scheduling_configs

    table, ks = scheduling_configs(n_c, tuple(range(1, n_s + 1)))
    # one row per (|S|, own beam, interferer set): the own beam, then the
    # interferers in beam order, padded with the zero-power column n_c
    configs = [
        (k, j, T) for k in range(1, n_s + 1) for j in range(n_c) for T in combinations([i for i in range(n_c) if i != j], k - 1)
    ]
    assert table.shape == (len(configs), max(2, n_s))
    for k, row, (k_ref, j, T) in zip(ks.tolist(), table.tolist(), configs):
        assert (k, row) == (k_ref, [j, *T] + [n_c] * (len(row) - k_ref))
    rng = np.random.default_rng(n_c * 10 + n_s)
    n = 40
    powers = np.vstack([rng.random((n_c, n)) * np.exp(rng.uniform(-30, 30, size=(1, n))), np.zeros(n)])
    full = _interference(powers, table)
    rates = _config_rates(np.ascontiguousarray(powers[:n_c].T), table, 0.7)
    for j in range(n):
        ref = []
        for _, _, T in configs:
            total = 0.0
            for b in T:
                total += float(powers[b, j])
            ref.append(total)
        assert full[:, j].tolist() == ref
        assert _interference(powers[:, j : j + 1], table)[:, 0].tolist() == ref
        assert rates[j].tolist() == np.log1p(powers[table[:, 0], j] / (0.7 + np.array(ref))).tolist()


@pytest.mark.parametrize("n_t,n_s", [(3, 2), (4, 4)])
def test_multiantenna_independent_of_pruning(monkeypatch, n_t, n_s):
    import ramimo.feedback as fb

    C = canonical_onb(n_t)
    V = concat_codebooks(C, rvq_codebook(n_t, 4, SeedSpec(78).derive("v", n_t)))
    for snr in (0.0, 40.0, 100.0):
        params = SystemParams(n_t=n_t, n_r=2, n_s=n_s, P=1.0).with_snr_db(snr)
        for i in range(3):
            uc = UserChannel(H=sample_complex_gaussian_matrix(2, n_t, SeedSpec(79).derive(n_t, int(snr), i)))
            pruned = compute_feedback("ra-full", uc, C, V, params)
            with monkeypatch.context() as mp:
                mp.setattr(fb, "PRUNE_MARGIN", np.inf)
                plain = compute_feedback("ra-full", uc, C, V, params)
            assert pruned == plain
