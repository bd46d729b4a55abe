import numpy as np
import pytest

from ramimo.channel import (
    SystemParams,
    draw_user_channel,
    effective_channel,
    effective_channel_state,
    mrc_filter,
)
from ramimo.numerics import SeedSpec

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
