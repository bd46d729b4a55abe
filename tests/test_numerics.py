import os
import subprocess
import sys

import numpy as np
import pytest

import ramimo

from oracles import plain_bisection
from ramimo import numerics
from ramimo.numerics import (
    CERTIFY_TOL,
    LOG_GAIN_BRACKET,
    MINIMAX_ITERS,
    SeedSpec,
    minimax_log_gain,
    sample_complex_gaussian,
)


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


def test_import_loads_no_scipy():
    # the package runs on numpy alone; scipy is only a benchmark dependency
    code = "import sys, ramimo; print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))"
    env = dict(os.environ, PYTHONPATH=os.path.dirname(os.path.dirname(ramimo.__file__)))
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, check=True, env=env)
    assert out.stdout.strip() == "[]"


# ---------------------------------------------------------------------------
# minimax_log_gain
# ---------------------------------------------------------------------------

# the last midpoint of a plain bisection lies within 80 * 2^-40 of the
# crossing, so that is how far apart its x and the certified root may lie
_BISECTION_TOL = 2 * LOG_GAIN_BRACKET * 2.0**-MINIMAX_ITERS


def _rate_mismatch(x, s, t):
    """log(1 + s e^x) - t, one column per problem: A = s, U = 0, r = t,
    rising in x for s >= 0."""
    return np.log1p(s * np.exp(x)) - t


def _rate_coefficients(c, s, t):
    k = np.arange(len(c))
    return s[c, k], np.zeros(len(c)), t[c, k]


def _random_columns(rng, k, n):
    s = rng.exponential(size=(k, n)) * np.exp(rng.uniform(-20, 20, size=(1, n)))
    t = rng.exponential(size=(k, n)) * rng.uniform(0, 5, size=(1, n))
    return s, t


def _assert_matches_bisection(x, v, lower, px, pv):
    # x within the bisection's own tolerance of its x; the value no worse
    # than the bisection's and certified by the lower bound
    assert np.all(np.abs(x - px) <= _BISECTION_TOL)
    assert np.all(v <= pv + 1e-13)
    assert np.all(v - lower <= CERTIFY_TOL)


def test_minimax_log_gain_nan_zero_and_flat_columns():
    rng = np.random.default_rng(5)
    s, t = _random_columns(rng, 3, 12)
    s[:, 0:4] = np.nan  # NaN columns: value +inf at x = 0
    s[:, 4] = 0.0  # a zero column: value 0
    t[:, 4] = 0.0
    s[:, 8:12] = 0.0  # flat columns: value max(t) wherever x is
    x, v, lower = minimax_log_gain(_rate_mismatch, _rate_coefficients, (s, t))
    assert np.all(np.isinf(v[0:4])) and np.all(x[0:4] == 0.0)
    assert v[4] == 0.0
    assert np.array_equal(v[8:12], t[:, 8:12].max(axis=0))
    px, pv = plain_bisection(_rate_mismatch, (s, t))
    assert np.array_equal(x[:4], px[:4]) and np.array_equal(v[:4], pv[:4])
    _assert_matches_bisection(x[4:], v[4:], lower[4:], px[4:], pv[4:])


def test_minimax_log_gain_one_column_groups():
    # every column is solved alone: its (x, value) matches the written-out
    # bisection, also where the value is flat over a stretch of x, and does
    # not depend on the other columns of the call; an empty call returns
    # empty arrays
    rng = np.random.default_rng(6)
    s, t = _random_columns(rng, 5, 64)
    s[2:, ::2] = 0.0  # flat over a stretch of x: x goes to its upper end, where over meets under
    x, v, lower = minimax_log_gain(_rate_mismatch, _rate_coefficients, (s, t))
    px, pv = plain_bisection(_rate_mismatch, (s, t))
    _assert_matches_bisection(x, v, lower, px, pv)
    assert np.all(np.isfinite(v))
    for lo in range(0, 64, 7):
        xs, vs, ls = minimax_log_gain(_rate_mismatch, _rate_coefficients, (s[:, lo : lo + 7], t[:, lo : lo + 7]))
        assert xs.tobytes() == x[lo : lo + 7].tobytes() and vs.tobytes() == v[lo : lo + 7].tobytes()
        assert ls.tobytes() == lower[lo : lo + 7].tobytes()
    x0, v0, l0 = minimax_log_gain(_rate_mismatch, _rate_coefficients, (s[:, :0], t[:, :0]))
    assert x0.shape == v0.shape == l0.shape == (0,)


def test_minimax_log_gain_without_root_rounds_is_the_plain_bisection(monkeypatch):
    # with no root rounds every column takes the fallback, whose midpoints
    # are the plain bisection's, bit for bit, NaN, zero and flat columns
    # included
    rng = np.random.default_rng(7)
    s, t = _random_columns(rng, 4, 40)
    s[:, :2], s[:, 2:6] = np.nan, 0.0
    t[:, 2:4] = 0.0
    monkeypatch.setattr(numerics, "MINIMAX_ROUNDS", 0)
    x, v, _ = minimax_log_gain(_rate_mismatch, _rate_coefficients, (s, t))
    px, pv = plain_bisection(_rate_mismatch, (s, t))
    assert x.tobytes() == px.tobytes() and v.tobytes() == pv.tobytes()
