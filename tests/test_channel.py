import numpy as np
import pytest

from ramimo.channel import (
    SystemParams,
    UserChannel,
    draw_channels,
    draw_user_channel,
    effective_channel,
    effective_channel_state,
    mrc_filter,
)
from ramimo.numerics import SeedSpec, sample_complex_gaussian_matrix

P2 = SystemParams(n_t=2, n_r=1, n_s=2, P=1.0, sigma_sq=1.0)
P24 = SystemParams(n_t=4, n_r=2, n_s=2, P=1.0, sigma_sq=1.0)


def test_params_validation():
    with pytest.raises(ValueError):
        SystemParams(n_t=2, n_r=1, n_s=3)
    with pytest.raises(ValueError):
        SystemParams(n_t=2, P=-1.0)


def test_draw_single_subcarrier():
    uc = draw_user_channel(P2, F=1, rho=0.0, seed=SeedSpec(1).derive("c"))
    assert uc.H.shape == (1, 2)
    assert uc.F == 1
    assert uc.per_subcarrier().shape == (1, 1, 2)


def _reference_user_channel(params, F, rho, seed):
    """One generator per (user, subcarrier) and the chain in subcarrier order,
    written without the block sampler."""
    mats = np.empty((F, params.n_r, params.n_t), dtype=complex)
    mats[0] = sample_complex_gaussian_matrix(params.n_r, params.n_t, seed.derive("f", 0))
    if F == 1:
        return UserChannel(H=mats[0], rho=rho)
    scale = np.sqrt(max(0.0, 1.0 - rho * rho))
    for f in range(1, F):
        mats[f] = rho * mats[f - 1] + scale * sample_complex_gaussian_matrix(params.n_r, params.n_t, seed.derive("f", f))
    return UserChannel(H=mats.mean(axis=0), subcarriers=mats, rho=rho)


@pytest.mark.parametrize("F", [1, 8])
@pytest.mark.parametrize("n_r", [1, 2])
@pytest.mark.parametrize("rho", [0.0, 0.95, 1.0])
def test_draw_channels_match_per_user_draws(F, n_r, rho):
    # a block of users drawn at once equals the users drawn one at a time,
    # and both equal the one-generator-per-stream reference, bit for bit
    params = SystemParams(n_t=4, n_r=n_r, n_s=2)
    seeds = [SeedSpec(2**32 + 17).derive("chan", i, m) for i in (0, 2**32 + 3) for m in range(5)]
    block = draw_channels(params, F, rho, 2**32 + 17, [seed.stream for seed in seeds])
    for seed, uc in zip(seeds, block):
        for other in (draw_user_channel(params, F, rho, seed), _reference_user_channel(params, F, rho, seed)):
            assert uc.H.tobytes() == other.H.tobytes()
            assert uc.rho == other.rho
            if F == 1:
                assert uc.subcarriers is None and other.subcarriers is None
            else:
                assert uc.subcarriers.tobytes() == other.subcarriers.tobytes()


def test_draw_channels_validation():
    params = SystemParams(n_t=2)
    assert draw_channels(params, 2, 0.5, 1, []) == []
    with pytest.raises(ValueError):
        draw_channels(params, 0, 0.5, 1, [(0,)])
    with pytest.raises(ValueError):
        draw_channels(params, 1, 1.5, 1, [(0,)])
    with pytest.raises(ValueError):
        draw_channels(params, 1, 0.5, 1, [0, 1])


def test_draw_rho_one_identical_subcarriers():
    uc = draw_user_channel(P2, F=3, rho=1.0, seed=SeedSpec(2).derive("c"))
    assert np.allclose(uc.subcarriers[0], uc.subcarriers[1])
    assert np.allclose(uc.subcarriers[0], uc.subcarriers[2])


def test_draw_rho_zero_uncorrelated():
    n = 10_000
    prods = np.empty(n, dtype=complex)
    power = np.empty(n)
    for i in range(n):
        uc = draw_user_channel(P2, F=2, rho=0.0, seed=SeedSpec(3).derive("c", i))
        prods[i] = uc.subcarriers[0, 0, 0] * np.conj(uc.subcarriers[1, 0, 0])
        power[i] = np.abs(uc.subcarriers[0, 0, 0]) ** 2
    corr = np.abs(prods.mean()) / power.mean()
    assert corr < 0.02


def test_draw_rho_chain_correlation():
    n = 10_000
    rho = 0.8
    prods = np.empty(n, dtype=complex)
    power = np.empty(n)
    for i in range(n):
        uc = draw_user_channel(P2, F=2, rho=rho, seed=SeedSpec(4).derive("c", i))
        prods[i] = uc.subcarriers[0, 0, 0] * np.conj(uc.subcarriers[1, 0, 0])
        power[i] = np.abs(uc.subcarriers[0, 0, 0]) ** 2
    assert np.real(prods.mean()) / power.mean() == pytest.approx(rho, abs=0.03)


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


def test_mrc_single_antenna():
    assert np.allclose(mrc_filter(np.array([[1.0, 2.0]])), [1.0])


def test_mrc_dominant_row():
    H = np.array([[2.0, 0.0], [0.0, 0.0]], dtype=complex)
    u = mrc_filter(H)
    assert np.allclose(u, [1.0, 0.0], atol=1e-12)


def test_mrc_zero_matrix_degenerate():
    u = mrc_filter(np.zeros((2, 3), dtype=complex))
    assert np.allclose(u, [1.0, 0.0])
    eff = effective_channel_state(effective_channel(np.zeros((2, 3), dtype=complex), u), P24)
    assert np.array_equal(eff.h, [1.0, 0.0, 0.0])
    assert eff.lambda_sq == 0.0


def test_mrc_matches_grid_oracle():
    rng = np.random.default_rng(6)
    H = rng.standard_normal((2, 4)) + 1j * rng.standard_normal((2, 4))
    u = mrc_filter(H)
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
    eff = effective_channel_state(h_hat, SystemParams(n_t=2, P=4.0, sigma_sq=2.0))
    assert eff.lambda_sq == pytest.approx(4.0 * 4.0 / (2 * 2.0))
    assert np.allclose(eff.h, [1.0, 0.0])
