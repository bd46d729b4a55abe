import numpy as np
import pytest

from oracles import jumped_generator, reference_draw_channels
from ramimo.channel import (
    EffectiveChannel,
    SystemParams,
    UserChannel,
    _mrc_filters,
    draw_channel_stack,
    draw_user_channel,
    effective_block,
    effective_channel,
    effective_channel_state,
    mrc_effective_channel,
    user_channels_block,
)
from ramimo.numerics import SeedSpec

P2 = SystemParams(n_t=2, n_r=1, n_s=2, P=1.0)
P24 = SystemParams(n_t=4, n_r=2, n_s=2, P=1.0)


def test_params_validation():
    with pytest.raises(ValueError):
        SystemParams(n_t=2, n_r=1, n_s=3)
    with pytest.raises(ValueError):
        SystemParams(n_t=2, P=-1.0)


def test_draw_single_subcarrier():
    uc = draw_user_channel(P2, F=1, rho=0.0, seed=SeedSpec(1).derive("c"))
    assert uc.H.shape == (1, 2)
    assert uc.subcarriers is None
    assert uc.per_subcarrier().shape == (1, 1, 2)


@pytest.mark.parametrize("F", [1, 8])
@pytest.mark.parametrize("n_r", [1, 2])
@pytest.mark.parametrize("rho", [0.0, 0.95, 1.0])
def test_draw_channels_match_per_user_draws(F, n_r, rho):
    # a block of draws equals, user by user, the reference drawn from the
    # family's PCG64 jumped d times, bit for bit, and a draw's user 0 is
    # the one-user draw
    params = SystemParams(n_t=4, n_r=n_r, n_s=2)
    family = SeedSpec(2**32 + 17).derive("chan")
    draws = (0, 2**32 + 3)
    H, sub = draw_channel_stack(params, F, rho, family, draws, 5)
    assert H.shape == (len(draws) * 5, n_r, 4) and sub.shape == (len(draws) * 5, F, n_r, 4)
    for k, d in enumerate(draws):
        for m, (ref_H, ref_sub) in enumerate(reference_draw_channels(params, F, rho, jumped_generator(family, d), 5)):
            assert H[k * 5 + m].tobytes() == ref_H.tobytes()
            assert sub[k * 5 + m].tobytes() == ref_sub.tobytes()
        H_one, sub_one = draw_channel_stack(params, F, rho, family, [d], 1)
        assert H[k * 5].tobytes() == H_one.tobytes()
        assert sub[k * 5].tobytes() == sub_one.tobytes()
    other = draw_user_channel(params, F, rho, family)
    assert H[0].tobytes() == other.H.tobytes()
    assert sub[0].tobytes() == other.per_subcarrier().tobytes()
    assert (other.subcarriers is None) == (F == 1)


@pytest.mark.parametrize("F", [1, 8])
@pytest.mark.parametrize("n_r", [1, 2])
def test_draw_rows_do_not_depend_on_the_other_draws(F, n_r):
    # a draw's rows are the same bits whatever other draws share the call:
    # out of order, repeated, or alone
    params = SystemParams(n_t=4, n_r=n_r, n_s=2)
    family = SeedSpec(91).derive("chan")
    alone = {d: draw_channel_stack(params, F, 0.9, family, [d], 3) for d in (0, 1, 5, 149)}
    for draws in ([149, 0, 5, 1], [5, 5, 0, 5], [1], [0, 1, 5, 149]):
        H, sub = draw_channel_stack(params, F, 0.9, family, draws, 3)
        for k, d in enumerate(draws):
            assert H[3 * k : 3 * k + 3].tobytes() == alone[d][0].tobytes()
            assert sub[3 * k : 3 * k + 3].tobytes() == alone[d][1].tobytes()


def test_draws_two_to_the_32_apart_differ():
    # the draw index is not reduced to 32 bits: draws d and d + 2^32 come
    # from different streams, each its own jump of the family
    params = SystemParams(n_t=4, n_r=1, n_s=2)
    family = SeedSpec(5).derive("chan")
    for d in (0, 1, 7):
        H, _ = draw_channel_stack(params, 1, 0.0, family, [d, d + 2**32], 2)
        assert not np.any(H[:2] == H[2:])
        ref = reference_draw_channels(params, 1, 0.0, jumped_generator(family, d + 2**32), 2)
        assert H[2:].tobytes() == np.array([ref_H for ref_H, _ in ref]).tobytes()


@pytest.mark.parametrize("F", [1, 6])
@pytest.mark.parametrize("n_r", [1, 2])
def test_user_channel_draws_from_the_seed_generator(F, n_r):
    # the one-user draw of a SeedSpec is drawn from seed.generator() itself
    params = SystemParams(n_t=4, n_r=n_r, n_s=2)
    seed = SeedSpec(12).derive("c", 3)
    uc = draw_user_channel(params, F, 0.7, seed)
    [(ref_H, ref_sub)] = reference_draw_channels(params, F, 0.7, seed.generator(), 1)
    assert uc.H.tobytes() == ref_H.tobytes()
    assert uc.per_subcarrier().tobytes() == ref_sub.tobytes()


@pytest.mark.parametrize("rho", [0.0, 0.95, 1.0])
def test_draw_first_subcarrier_is_flat_draw(rho):
    # with one user per draw, subcarrier 0 of an F = 8 draw is the F = 1
    # draw of the same index, bit for bit (users after the first start
    # further along their draw's stream when F > 1)
    params = SystemParams(n_t=4, n_r=2, n_s=2)
    family = SeedSpec(77).derive("chan")
    H_flat, _ = draw_channel_stack(params, 1, rho, family, range(12), 1)
    _, sub = draw_channel_stack(params, 8, rho, family, range(12), 1)
    assert sub[:, 0].tobytes() == H_flat.tobytes()


def test_draw_channels_validation():
    params = SystemParams(n_t=2)
    H, sub = draw_channel_stack(params, 2, 0.5, SeedSpec(1), [], 3)
    assert H.shape == (0, 1, 2) and sub.shape == (0, 2, 1, 2)
    with pytest.raises(ValueError):
        draw_channel_stack(params, 0, 0.5, SeedSpec(1), [0], 1)
    with pytest.raises(ValueError):
        draw_channel_stack(params, 1, 1.5, SeedSpec(1), [0], 1)
    with pytest.raises(ValueError):
        draw_channel_stack(params, 1, 0.5, SeedSpec(1), [0], 0)


def test_draw_rho_one_identical_subcarriers():
    uc = draw_user_channel(P2, F=3, rho=1.0, seed=SeedSpec(2).derive("c"))
    assert np.allclose(uc.subcarriers[0], uc.subcarriers[1])
    assert np.allclose(uc.subcarriers[0], uc.subcarriers[2])


def _subcarrier_stats(rho, master_seed):
    """Per-subcarrier mean power (F,) and neighbour correlation E[H_f
    conj(H_{f+1})] / E|H_f|^2 of every pair (f, f+1) and every antenna
    entry (F - 1, n_r, n_t), over 10,000 users at F = 8."""
    _, sub = draw_channel_stack(P2, 8, rho, SeedSpec(master_seed).derive("c"), range(10_000), 1)
    power = np.mean(np.abs(sub) ** 2, axis=0)
    corr = np.mean(sub[:, :-1] * np.conj(sub[:, 1:]), axis=0) / power[:-1]
    return power.mean(axis=(1, 2)), corr


def test_draw_rho_zero_uncorrelated():
    power, corr = _subcarrier_stats(0.0, 3)
    assert np.all(np.abs(corr) < 0.02)
    assert power == pytest.approx(1.0, abs=0.03)


def test_draw_rho_chain_correlation():
    rho = 0.8
    power, corr = _subcarrier_stats(rho, 4)
    assert np.real(corr) == pytest.approx(rho, abs=0.03)
    assert power == pytest.approx(1.0, abs=0.03)


def test_effective_channel_single_antenna():
    H = np.array([[1.0 + 2.0j, 3.0 - 1.0j]])
    h = effective_channel(H, np.ones(1, dtype=complex))
    assert np.allclose(h, H[0].conj())


def test_effective_channel_identity():
    H = np.eye(2, dtype=complex)
    e1 = np.array([1.0, 0.0], dtype=complex)
    assert np.allclose(effective_channel(H, e1), e1)


def test_effective_channel_adjoint_identity():
    rng = np.random.default_rng(5)
    for _ in range(100):
        H = rng.standard_normal((2, 4)) + 1j * rng.standard_normal((2, 4))
        u = rng.standard_normal(2) + 1j * rng.standard_normal(2)
        x = rng.standard_normal(4) + 1j * rng.standard_normal(4)
        lhs = np.vdot(u, H @ x)
        rhs = np.vdot(effective_channel(H, u), x)
        assert lhs == pytest.approx(rhs, abs=1e-12)


def test_effective_channel_dimension_mismatch():
    with pytest.raises(ValueError):
        effective_channel(np.eye(2, dtype=complex), np.ones(3, dtype=complex))
    with pytest.raises(ValueError):
        effective_channel(np.ones(2, dtype=complex), np.ones(1, dtype=complex))


def test_effective_channel_stack_matches_per_matrix():
    # a stack of matrices and filters, broadcast, equals the product of
    # each matrix and filter alone bit for bit
    rng = np.random.default_rng(8)
    for n_r in (1, 2, 3):
        H = rng.standard_normal((50, 3, n_r, 4)) + 1j * rng.standard_normal((50, 3, n_r, 4))
        H[0] = H[0].real  # exactly real entries keep the sign of their zero imaginary parts
        u = rng.standard_normal((50, 1, n_r)) + 1j * rng.standard_normal((50, 1, n_r))
        got = effective_channel(H, u)
        assert got.shape == (50, 3, 4)
        for i in range(50):
            for f in range(3):
                assert got[i, f].tobytes() == effective_channel(H[i, f], u[i, 0]).tobytes()
                assert got[i, f].tobytes() == (H[i, f].conj().T @ u[i, 0]).tobytes()


def test_mrc_single_antenna():
    assert np.allclose(_mrc_filters(np.array([[[1.0, 2.0]]], dtype=complex))[0], [1.0])


def test_mrc_dominant_row():
    H = np.array([[2.0, 0.0], [0.0, 0.0]], dtype=complex)
    u = _mrc_filters(H[None])[0]
    assert np.allclose(u, [1.0, 0.0], atol=1e-12)


def test_mrc_zero_matrix_degenerate():
    u = _mrc_filters(np.zeros((1, 2, 3), dtype=complex))[0]
    assert np.allclose(u, [1.0, 0.0])
    eff = effective_channel_state(effective_channel(np.zeros((2, 3), dtype=complex), u), P24)
    assert np.array_equal(eff.h, [1.0, 0.0, 0.0])
    assert eff.lambda_sq == 0.0


def test_mrc_matches_grid_oracle():
    rng = np.random.default_rng(6)
    H = rng.standard_normal((2, 4)) + 1j * rng.standard_normal((2, 4))
    u = _mrc_filters(H[None])[0]
    achieved = np.linalg.norm(H.conj().T @ u)
    best = 0.0
    alphas = np.linspace(0, np.pi / 2, 100)
    betas = np.linspace(0, 2 * np.pi, 100, endpoint=False)
    for a in alphas:
        us = np.stack([np.full_like(betas, np.cos(a)), np.sin(a) * np.exp(1j * betas)], axis=1)
        best = max(best, float(np.max(np.linalg.norm(us.conj() @ H, axis=1))))
    assert achieved >= best - 1e-3


def test_effective_channel_state_lambda():
    h_hat = np.array([2.0, 0.0], dtype=complex)
    eff = effective_channel_state(h_hat, SystemParams(n_t=2, P=2.0))
    assert eff.lambda_sq == pytest.approx(2.0 * 4.0 / 2)
    assert np.allclose(eff.h, [1.0, 0.0])


def _reference_state(h_hat, params):
    """One user's EffectiveChannel, scalar arithmetic (the oracle of the
    block pass)."""
    gain = float(np.linalg.norm(h_hat))
    if gain == 0.0:
        return EffectiveChannel(h_hat=h_hat, lambda_sq=0.0, h=np.eye(len(h_hat), 1, dtype=complex)[:, 0])
    lam_sq = params.P * gain * gain / params.n_t
    return EffectiveChannel(h_hat=h_hat, lambda_sq=lam_sq, h=h_hat / gain)


def _reference_mrc_filter(H):
    """Dominant left singular vector of one matrix, its largest-magnitude
    entry rotated real positive; 1 for n_r = 1 and e_1 for a zero matrix."""
    if H.shape[0] == 1:
        return np.ones(1, dtype=complex)
    if not np.any(H):
        return np.eye(H.shape[0], 1, dtype=complex)[:, 0]
    u = np.linalg.svd(H)[0][:, 0]
    i = int(np.argmax(np.abs(u)))
    if np.abs(u[i]) > 0:
        u = u * (np.conj(u[i]) / np.abs(u[i]))
    return u


def _assert_same_effective(got, ref):
    assert got.h_hat.tobytes() == ref.h_hat.tobytes()
    assert got.lambda_sq == ref.lambda_sq
    assert got.h.tobytes() == ref.h.tobytes()


@pytest.mark.parametrize("F", [1, 4])
@pytest.mark.parametrize("n_r", [1, 2, 3])
def test_effective_block_matches_per_user_oracle(n_r, F):
    # 1,000 users x 5 SNR points (-20..100 dB) of block rows, plus zero
    # and rank-one channels and subcarriers, each equal to the scalar
    # per-user computation: the filter of the averaged channel applied to
    # it and to every subcarrier
    params = SystemParams(n_t=4, n_r=n_r, n_s=2)
    H, sub = draw_channel_stack(params, F, 0.7, SeedSpec(29).derive(n_r, F), range(1000), 1)
    chans = [UserChannel(H=h, subcarriers=None if F == 1 else s) for h, s in zip(H, sub)]
    zero = np.zeros((n_r, 4), dtype=complex)
    rank_one = np.outer(np.arange(1.0, n_r + 1), [1.0, 2.0j, 0.0, -3.0 + 1.0j])
    if F == 1:
        chans += [UserChannel(H=zero), UserChannel(H=rank_one)]
    else:
        chans += [
            UserChannel(H=zero, subcarriers=np.array([zero] * F)),
            UserChannel(H=rank_one, subcarriers=np.array([rank_one, zero, 2.0 * rank_one, 1.0j * rank_one])),
            UserChannel(H=zero, subcarriers=np.array([rank_one, -rank_one, rank_one, -rank_one])),
        ]
    block = effective_block(np.array([uc.H for uc in chans]), np.array([uc.per_subcarrier() for uc in chans]))
    assert block.h_hat.shape == (len(chans), 4) and block.sub_h_hat.shape == (len(chans), F, 4)
    # written over the stack's first rows, as the harness builds it, the
    # subcarrier channels are the same bits
    sub = np.array([uc.per_subcarrier() for uc in chans])
    over = effective_block(np.array([uc.H for uc in chans]), sub, out=sub[:, :, 0])
    assert np.shares_memory(over.sub_h_hat, sub) and over.sub_h_hat.tobytes() == block.sub_h_hat.tobytes()
    for snr_db in (-20.0, 0.0, 30.0, 60.0, 100.0):
        p = params.with_snr_db(snr_db)
        effs = [EffectiveChannel(*row) for row in zip(block.h_hat, (p.P * block.gain * block.gain / p.n_t).tolist(), block.h)]
        for uc, eff, sub in zip(chans, effs, block.sub_h_hat):
            u = _reference_mrc_filter(uc.H)
            _assert_same_effective(eff, _reference_state(uc.H.conj().T @ u, p))
            assert len(sub) == F
            for row, Hf in zip(sub, uc.per_subcarrier()):
                _assert_same_effective(effective_channel_state(row, p), _reference_state(Hf.conj().T @ u, p))
    # the one-user functions are the block's one-user case
    for uc, eff, sub in list(zip(chans, effs, block.sub_h_hat))[-5:]:
        assert _mrc_filters(uc.H[None])[0].tobytes() == _reference_mrc_filter(uc.H).tobytes()
        _assert_same_effective(mrc_effective_channel(uc, p), eff)
        assert user_channels_block([uc]).sub_h_hat[0].tobytes() == sub.tobytes()
    zero_eff = effs[-3 if F > 1 else -2]
    assert zero_eff.lambda_sq == 0.0 and zero_eff.h.tolist() == [1.0, 0.0, 0.0, 0.0]
