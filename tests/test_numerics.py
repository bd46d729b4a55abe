import numpy as np
import pytest

from ramimo.numerics import (
    LOG_GAIN_BRACKET,
    MINIMAX_ITERS,
    SeedSpec,
    generalized_rayleigh_max,
    inner,
    minimax_log_gain,
    norm1,
    norm2,
    norm_inf,
    sample_complex_gaussian,
)

E1 = np.array([1.0, 0.0], dtype=complex)
E2 = np.array([0.0, 1.0], dtype=complex)


def test_inner_unit_basis():
    assert inner(E1, E1) == pytest.approx(1.0)
    assert inner(E1, E2) == pytest.approx(0.0)


def test_inner_conjugate_orthogonal_pair():
    a = np.array([1.0, 1.0j]) / np.sqrt(2)
    b = np.array([1.0, -1.0j]) / np.sqrt(2)
    assert abs(inner(a, b)) == pytest.approx(0.0, abs=1e-15)


def test_inner_conjugates_first_argument():
    a = np.array([1.0j, 0.0])
    b = np.array([1.0, 0.0])
    assert inner(a, b) == pytest.approx(-1.0j)


def test_inner_dimension_mismatch():
    with pytest.raises(ValueError):
        inner(E1, np.ones(3, dtype=complex))


def test_inner_hermitian_symmetry_random():
    rng = np.random.default_rng(7)
    for _ in range(200):
        a = rng.standard_normal(4) + 1j * rng.standard_normal(4)
        b = rng.standard_normal(4) + 1j * rng.standard_normal(4)
        assert inner(a, b) == pytest.approx(np.conj(inner(b, a)), abs=1e-12)


def test_norms():
    assert norm2(E1) == pytest.approx(1.0)
    assert norm1([0.5, 0.5]) == pytest.approx(1.0)
    assert norm_inf([0.1, -0.7]) == pytest.approx(0.7)


def test_norm2_matches_inner():
    rng = np.random.default_rng(3)
    for _ in range(50):
        a = rng.standard_normal(5) + 1j * rng.standard_normal(5)
        assert norm2(a) ** 2 == pytest.approx(inner(a, a).real, abs=1e-12)


def test_rayleigh_diagonal_case():
    val, u = generalized_rayleigh_max(np.diag([2.0, 1.0]).astype(complex), np.eye(2, dtype=complex))
    assert val == pytest.approx(2.0, abs=1e-12)
    assert abs(u[0]) == pytest.approx(1.0, abs=1e-12)


def test_rayleigh_identity_pair():
    val, u = generalized_rayleigh_max(np.eye(2, dtype=complex), np.eye(2, dtype=complex))
    assert val == pytest.approx(1.0, abs=1e-12)
    assert norm2(u) == pytest.approx(1.0, abs=1e-12)


def _sphere_grid_max(A, B, a_lo, a_hi, b_lo, b_hi, n=100):
    alphas = np.linspace(a_lo, a_hi, n)
    betas = np.linspace(b_lo, b_hi, n)
    best = (0.0, 0.0, 0.0)
    for a in alphas:
        us = np.stack([np.full_like(betas, np.cos(a)), np.sin(a) * np.exp(1j * betas)], axis=1)
        num = np.einsum("ni,ij,nj->n", us.conj(), A, us).real
        den = np.einsum("ni,ij,nj->n", us.conj(), B, us).real
        k = int(np.argmax(num / den))
        if num[k] / den[k] > best[0]:
            best = (float(num[k] / den[k]), float(a), float(betas[k]))
    return best


def test_rayleigh_matches_grid_search():
    # independent oracle: grid over the unit sphere in C^2 (parametrized up
    # to global phase), refined once around the coarse optimum
    rng = np.random.default_rng(11)
    G = rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))
    A = G @ G.conj().T
    G2 = rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))
    B = G2 @ G2.conj().T + 0.5 * np.eye(2)
    val, _ = generalized_rayleigh_max(A, B)
    coarse, a0, b0 = _sphere_grid_max(A, B, 0.0, np.pi / 2, 0.0, 2 * np.pi)
    da = (np.pi / 2) / 99 * 2
    db = 2 * np.pi / 99 * 2
    fine, _, _ = _sphere_grid_max(A, B, a0 - da, a0 + da, b0 - db, b0 + db)
    best = max(coarse, fine)
    assert best <= val + 1e-12
    assert val == pytest.approx(best, abs=1e-4 * max(1.0, best))


def test_rayleigh_matches_characteristic_polynomial():
    # for B = I the value is the largest eigenvalue of A: closed form for 2x2
    rng = np.random.default_rng(19)
    for _ in range(20):
        G = rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))
        A = G @ G.conj().T
        t = A[0, 0].real + A[1, 1].real
        d = (A[0, 0] * A[1, 1] - A[0, 1] * A[1, 0]).real
        lam_max = (t + np.sqrt(t * t - 4 * d)) / 2
        val, _ = generalized_rayleigh_max(A, np.eye(2, dtype=complex))
        assert val == pytest.approx(lam_max, abs=1e-10 * max(1.0, lam_max))


def test_rayleigh_rejects_non_hermitian():
    A = np.array([[1.0, 1.0], [0.0, 1.0]], dtype=complex)
    with pytest.raises(ValueError):
        generalized_rayleigh_max(A, np.eye(2, dtype=complex))


def test_rayleigh_rejects_singular_b():
    with pytest.raises(ValueError):
        generalized_rayleigh_max(np.eye(2, dtype=complex), np.zeros((2, 2), dtype=complex))


def test_sampling_deterministic():
    a = sample_complex_gaussian(6, SeedSpec(99).derive("exp", 3))
    b = sample_complex_gaussian(6, SeedSpec(99).derive("exp", 3))
    assert a.tobytes() == b.tobytes()


def test_sampling_independent_of_derivation_order():
    # deriving the same stream twice from different parent objects matches
    s1 = SeedSpec(5).derive("a").derive(2)
    s2 = SeedSpec(5).derive("a", 2)
    assert np.array_equal(sample_complex_gaussian(4, s1), sample_complex_gaussian(4, s2))


def test_sampling_unit_power():
    draws = np.concatenate(
        [sample_complex_gaussian(4, SeedSpec(1).derive("pow", i)) for i in range(25_000)]
    )
    assert np.mean(np.abs(draws) ** 2) == pytest.approx(1.0, abs=0.02)


def test_sampling_streams_uncorrelated():
    n = 20_000
    a = np.concatenate([sample_complex_gaussian(5, SeedSpec(2).derive(0, i)) for i in range(n // 5)])
    b = np.concatenate([sample_complex_gaussian(5, SeedSpec(2).derive(1, i)) for i in range(n // 5)])
    corr = np.abs(np.mean(a * np.conj(b)))
    assert corr < 0.02


# ---------------------------------------------------------------------------
# minimax_log_gain
# ---------------------------------------------------------------------------


def _rate_excess(x, s, t):
    """Largest overshoot and undershoot of log(1 + s e^x) over targets t,
    one column per problem; s >= 0 makes them monotone in x."""
    d = np.log1p(s * np.exp(x)) - t
    return d.max(axis=0), -d.min(axis=0)


def _plain_bisection(excess, columns):
    """The bisection without pruning, written out as a reference."""
    n = columns[0].shape[-1]
    lo, hi = np.full(n, -LOG_GAIN_BRACKET), np.full(n, LOG_GAIN_BRACKET)
    best_x, best = np.zeros(n), np.full(n, np.inf)
    for _ in range(MINIMAX_ITERS):
        x = 0.5 * (lo + hi)
        over, under = excess(x, *columns)
        val = np.maximum(over, under)
        better = val <= best
        best_x, best = np.where(better, x, best_x), np.where(better, val, best)
        rising = over >= under
        hi, lo = np.where(rising, x, hi), np.where(rising, lo, x)
    return best_x, best


def _assert_same_winners(s, t, group):
    """Group minima, argmins (ties to the lowest index) and winning x of a
    grouped solve equal the group = 1 solve bit for bit; so does every
    column that survives, and pruned columns read (NaN, +inf)."""
    x1, v1 = minimax_log_gain(_rate_excess, (s, t), 1)
    px, pv = _plain_bisection(_rate_excess, (s, t))
    assert np.array_equal(x1, px) and np.array_equal(v1, pv)
    xg, vg = minimax_log_gain(_rate_excess, (s, t), group)
    groups = [slice(lo, lo + group) for lo in range(0, len(vg), group)]
    for g in groups:
        i1, ig = int(np.argmin(v1[g])), int(np.argmin(vg[g]))
        assert i1 == ig
        assert v1[g][i1].tobytes() == vg[g][ig].tobytes()
        assert x1[g][i1].tobytes() == xg[g][ig].tobytes()
    kept = np.isfinite(vg)
    assert np.array_equal(xg[kept], x1[kept]) and np.array_equal(vg[kept], v1[kept])
    pruned = np.isnan(xg)
    assert np.all(np.isinf(vg[pruned]))
    return pruned


def _random_columns(rng, k, n):
    s = rng.exponential(size=(k, n)) * np.exp(rng.uniform(-20, 20, size=(1, n)))
    t = rng.exponential(size=(k, n)) * rng.uniform(0, 5, size=(1, n))
    return s, t


def test_minimax_log_gain_pruning_keeps_winners_random_columns():
    rng = np.random.default_rng(3)
    s, t = _random_columns(rng, 6, 64 * 30)
    pruned = _assert_same_winners(s, t, 64)
    assert pruned.mean() > 0.5  # most columns lose early


def test_minimax_log_gain_duplicated_columns_tie_to_lowest_index():
    rng = np.random.default_rng(4)
    s, t = _random_columns(rng, 4, 5)
    # each group repeats its five columns, so every minimum is a tie
    s, t = np.tile(s, (1, 2)), np.tile(t, (1, 2))
    _, v1 = minimax_log_gain(_rate_excess, (s, t), 1)
    _, vg = minimax_log_gain(_rate_excess, (s, t), 10)
    i = int(np.argmin(v1))
    assert i < 5 and np.isfinite(vg[i + 5]) and vg[i + 5] == vg[i]
    _assert_same_winners(s, t, 10)


def test_minimax_log_gain_nan_zero_and_flat_columns():
    rng = np.random.default_rng(5)
    s, t = _random_columns(rng, 3, 12)
    s[:, 0:4] = np.nan  # group 0: all NaN, every value +inf, nothing pruned
    s[:, 4] = 0.0  # group 1: a zero column (value 0) beats the rest
    t[:, 4] = 0.0
    s[:, 8:12] = 0.0  # group 2: flat columns, value max(t) wherever x is
    x, v = minimax_log_gain(_rate_excess, (s, t), 4)
    assert np.all(np.isinf(v[0:4])) and not np.any(np.isnan(x[0:4]))
    assert v[4] == 0.0 and np.all(np.isinf(v[5:8]))
    assert np.array_equal(v[8:12][np.isfinite(v[8:12])], t[:, 8:12].max(axis=0)[np.isfinite(v[8:12])])
    _assert_same_winners(s, t, 4)


def test_minimax_log_gain_one_column_groups():
    rng = np.random.default_rng(6)
    s, t = _random_columns(rng, 5, 7)
    x, v = minimax_log_gain(_rate_excess, (s, t), 1)
    assert np.all(np.isfinite(v))  # a lone column is its group's best
    _assert_same_winners(s, t, 3)  # the last of 7 columns is a group alone
    x0, v0 = minimax_log_gain(_rate_excess, (s[:, :0], t[:, :0]), 4)
    assert x0.shape == v0.shape == (0,)


def test_minimax_log_gain_late_winner():
    # two linear-regime columns with values 0.25 + 1e-7 (crossing at 17.42)
    # and 0.25 (crossing at 33.55): only after about 30 halvings does the
    # second column's best undercut the first column's bound
    a, delta = 0.25, 1e-7
    s = np.array([[1.0, 1.0], [np.exp(-2 * (a + delta)), np.exp(-2 * a)]])
    t = np.array([[17.17, 33.3], [17.17, 33.3]])
    held = []

    def counting(x, s, t):
        held.append(x.size)
        return _rate_excess(x, s, t)

    x, v = minimax_log_gain(counting, (s, t), 2)
    assert int(np.argmin(v)) == 1 and np.isinf(v[0])
    assert held.index(1) >= 25
    _assert_same_winners(s, t, 2)
