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
    standard_normal_rows,
)
from ramimo.numerics import _add128, _mul128_pcg64, _pcg64_word_order, _raw_state_words

_PCG64_MULT = 0x2360ED051FC65DA44385DF649FCCF645


@pytest.mark.parametrize("master_seed", [0, 1, 2**32 - 1, 2**32 + 5, 2**70 + 3, 2**130 + 9])
def test_standard_normal_rows_match_default_rng(master_seed):
    # every row equals the draws of its own SeedSequence + default_rng, for
    # master seeds of one to five 32-bit words, str keys, and draw indices
    # >= 2^32 that _key_to_int wraps
    by_length = (
        [("chan",), (0,), (2**32 + 7,)],
        [("chan", i, m) for i in (0, 3, 2**32 + 1, 2**40) for m in range(3)],
        [("chan", i, m, "f", f) for i in (5, 2**33 + 9) for m in range(2) for f in range(4)],
    )
    for keys in by_length:
        specs = [SeedSpec(master_seed).derive(*k) for k in keys]
        for n in (1, 8, 9):
            got = standard_normal_rows(master_seed, [s.stream for s in specs], n)
            want = np.array([s.generator().standard_normal(n) for s in specs])
            assert got.tobytes() == want.tobytes()


@pytest.mark.parametrize("master_seed", [3, 2**70 + 3])
def test_standard_normal_rows_match_default_rng_on_random_words(master_seed):
    # 10^4 streams of random 32-bit words, with rows of all 0 and all
    # 2^32 - 1 words among them: the seeding sums wrap past 2^128 for
    # about half the rows, and 64 draws per row reach ziggurat's slow path
    rng = np.random.default_rng(15)
    streams = rng.integers(0, 2**32, size=(10_000, 3), dtype=np.uint32)
    streams[:50] = 0
    streams[50:100] = 2**32 - 1
    streams[np.arange(100, 200), rng.integers(0, 3, size=100)] = rng.choice(np.array([0, 2**32 - 1], dtype=np.uint32), size=100)
    got = standard_normal_rows(master_seed, streams, 64)
    want = np.array([SeedSpec(master_seed, tuple(int(w) for w in row)).generator().standard_normal(64) for row in streams])
    assert got.tobytes() == want.tobytes()


def test_standard_normal_rows_reuse_one_generator_per_process():
    # the process keeps one generator for every call; back-to-back calls
    # with different row and draw counts each equal the SeedSpec path, and
    # so do calls in the two worker processes of a workers=2 pool, which
    # start with the parent's generator already made
    from concurrent.futures import ProcessPoolExecutor

    from ramimo.numerics import _row_generator

    specs = [SeedSpec(9).derive("chan", i, m) for i in range(21) for m in range(2)]
    streams = np.array([s.stream for s in specs], dtype=np.uint32)

    def want(rows, n):
        return np.array([s.generator().standard_normal(n) for s in specs[:rows]])

    for rows, n in ((1, 5), (42, 3), (3, 64), (6, 6), (42, 1), (0, 4), (2, 6)):
        assert standard_normal_rows(9, streams[:rows], n).tobytes() == want(rows, n).tobytes()
    assert _row_generator.cache_info().currsize == 1
    with ProcessPoolExecutor(max_workers=2) as pool:
        futures = [pool.submit(standard_normal_rows, 9, streams[:rows], 6) for rows in (6, 42, 6, 1)]
        got = [f.result(timeout=120) for f in futures]
    for rows, rows_got in zip((6, 42, 6, 1), got):
        assert rows_got.tobytes() == want(rows, 6).tobytes()


def _limbs(values):
    return np.array([[v >> 32 * k & 0xFFFFFFFF for v in values] for k in range(4)], dtype=np.uint64)


def _from_limbs(limbs):
    return [sum(int(limbs[k, i]) << 32 * k for k in range(4)) for i in range(limbs.shape[1])]


def test_limb_arithmetic_matches_python_ints():
    # 128-bit add and multiply on 32-bit limbs equal Python's big ints
    # mod 2^128, with every carry chain from limb 0 to limb 3 exercised
    rng = np.random.default_rng(16)
    edge = [0, 1, 2**32 - 1, 2**64 - 1, 2**96 - 1, 2**128 - 1, 2**127, (2**128 - 1) ^ (2**64)]
    a = edge + [int(x) for x in rng.integers(0, 2**63, size=200)] + [
        int.from_bytes(rng.bytes(16), "little") for _ in range(500)
    ]
    b = [(2**128 - 1 - x) ^ (x & 1) for x in a[::-1]]
    mask = 2**128 - 1
    assert _from_limbs(_add128(_limbs(a), _limbs(b))) == [(x + y) & mask for x, y in zip(a, b)]
    assert _from_limbs(_mul128_pcg64(_limbs(a))) == [x * _PCG64_MULT & mask for x in a]


def test_raw_state_write_reads_back_through_public_state():
    # four words written straight into a PCG64 show up as the state and
    # inc of its public `state` dict, and draw what a dict-set state draws
    state, inc = 0xFEDCBA98765432100123456789ABCDEF, 0x00112233445566778899AABBCCDDEEFF
    logical = [state & 2**64 - 1, state >> 64, inc & 2**64 - 1, inc >> 64]
    bitgen = np.random.PCG64(0)
    raw = _raw_state_words(bitgen)
    raw[:] = np.array(logical, dtype=np.uint64)[list(_pcg64_word_order())]
    assert bitgen.state["state"] == {"state": state, "inc": inc}
    assert bitgen.state["has_uint32"] == 0
    ref = np.random.PCG64(0)
    ref.state = {"bit_generator": "PCG64", "state": {"state": state, "inc": inc}, "has_uint32": 0, "uinteger": 0}
    got = np.random.Generator(bitgen).standard_normal(16)
    assert got.tobytes() == np.random.Generator(ref).standard_normal(16).tobytes()


def test_standard_normal_rows_rejects_bad_input():
    with pytest.raises(ValueError):
        standard_normal_rows(-1, [[0]], 2)
    with pytest.raises(ValueError):
        standard_normal_rows(1, [0, 1], 2)
    assert standard_normal_rows(1, np.zeros((0, 2), dtype=np.uint32), 3).shape == (0, 3)


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
