"""The minimax gain solver and reproducible random sampling.

Everything here is deterministic: random draws are pure functions of a
SeedSpec, so simulation results do not depend on execution order or on
how draws are distributed over worker processes.
"""

import ctypes
import functools
import zlib
from dataclasses import dataclass

import numpy as np

LOG_GAIN_BRACKET = 40.0  # x = log theta^2 in [-40, 40]: theta^2 from 4e-18 to 2e17
MINIMAX_ROUNDS = 8  # root rounds of the gain solver before a column falls back to halving
MINIMAX_ITERS = 40  # midpoints of a fallback column: 80 * 2^-40 ~ 7e-11 in x
CERTIFY_TOL = 1e-13  # largest gap between a certified column's value and its lower bound


def _key_to_int(key):
    """Map a stream key (int or str) to a stable 32-bit integer."""
    if isinstance(key, (int, np.integer)):
        return int(key) % (2**32)
    if isinstance(key, str):
        return zlib.crc32(key.encode("utf-8"))
    raise TypeError(f"seed stream keys must be int or str, got {type(key).__name__}")


@dataclass(frozen=True)
class SeedSpec:
    """Master seed plus a derivation path identifying one random stream.

    (master_seed, stream) -> generator state is a pure function, so the
    same SeedSpec always yields the same draws, on any machine and with
    any number of workers.
    """

    master_seed: int
    stream: tuple = ()

    def derive(self, *keys):
        """Child stream for e.g. (experiment, draw index, user index)."""
        return SeedSpec(self.master_seed, self.stream + tuple(_key_to_int(k) for k in keys))

    def generator(self):
        seq = np.random.SeedSequence(self.master_seed, spawn_key=self.stream)
        return np.random.default_rng(seq)


# numpy's SeedSequence hash (pool size 4) and PCG64's 128-bit LCG multiplier
_POOL_SIZE = 4
_INIT_A, _MULT_A = 0x43B0D7E5, 0x931E8875
_INIT_B, _MULT_B = 0x8B51F9DD, 0x58F38DED
_MIX_MULT_L, _MIX_MULT_R = 0xCA01F9DD, 0x4973F715
_MASK32 = 0xFFFFFFFF
_PCG64_MULT = 0x2360ED051FC65DA44385DF649FCCF645
_PCG64_MULT_LIMBS = np.array([_PCG64_MULT >> 32 * k & _MASK32 for k in range(4)], dtype=np.uint64)[:, None]


def _hash_consts(init, mult, count):
    """The first count + 1 hash constants: init, init * mult, ... (mod 2^32)."""
    out = [init]
    for _ in range(count):
        out.append(out[-1] * mult & _MASK32)
    return out


@functools.lru_cache(maxsize=64)
def _master_pool(master_seed):
    """SeedSequence pool after the master seed's words, and the index of the
    next hash constant: the part of every stream's hash that only the
    master seed decides.  The zero words that pad a short master seed
    before a spawn key hash like the pool's empty slots, so the pool of
    SeedSequence(master_seed) is that part."""
    n_words = max(-(-master_seed.bit_length() // 32), _POOL_SIZE)
    pool = np.random.SeedSequence(master_seed).pool
    return pool[:, None], _POOL_SIZE * n_words


@functools.lru_cache(maxsize=64)
def _key_consts(t0, n_keys):
    """(xor, multiply) hash constants of every (key word, pool word) pair,
    each shaped (n_keys, 4, 1), for key words that start at constant t0."""
    consts = np.array(_hash_consts(_INIT_A, _MULT_A, t0 + _POOL_SIZE * n_keys), dtype=np.uint32)
    pre = consts[t0 : t0 + _POOL_SIZE * n_keys].reshape(n_keys, _POOL_SIZE, 1)
    post = consts[t0 + 1 : t0 + _POOL_SIZE * n_keys + 1].reshape(n_keys, _POOL_SIZE, 1)
    return pre, post


# generate_state(4, uint64) draws 8 words, cycling over the pool twice
_STATE_CONSTS = np.array(_hash_consts(_INIT_B, _MULT_B, 8), dtype=np.uint32)[:, None]
_STATE_POOL_ROWS = [0, 1, 2, 3, 0, 1, 2, 3]
# PCG64 seeds from the 64-bit words (w0, w1, w2, w3) as state w0 << 64 | w1
# and sequence w2 << 64 | w3; their 32-bit limbs, lowest first, among the
# 8 little-endian 32-bit words that generate_state hashes
_SEED_LIMBS = [2, 3, 0, 1]
_SEQ_LIMBS = [6, 7, 4, 5]


def _carry128(limbs):
    """Carry a (4, S) uint64 array of 32-bit limb sums, lowest first, into
    32-bit limbs of the sum mod 2^128."""
    for k in range(3):
        limbs[k + 1] += limbs[k] >> 32
    return limbs & _MASK32


def _add128(a, b):
    """(a + b) mod 2^128 on 32-bit limbs."""
    return _carry128(a + b)


def _mul128_pcg64(a):
    """(a * PCG64 multiplier) mod 2^128 on 32-bit limbs.  Limb i times
    multiplier limb j puts its low half in column i + j and its high half
    in the next, so no column sum reaches 2^35 before the carries run."""
    out = np.zeros_like(a)
    for i in range(4):
        p = a[i] * _PCG64_MULT_LIMBS[: 4 - i]  # columns i .. 3
        out[i:] += p & _MASK32
        out[i + 1 :] += p[:-1] >> 32
    return _carry128(out)


def _raw_state_words(bitgen):
    """A writable uint64 view of a PCG64's 128-bit state and increment, the
    four words of its pcg64_random_t; numpy's pcg64_state, whose address
    `ctypes.state_address` gives, starts with a pointer to it.  The view
    does not keep `bitgen` alive."""
    address = ctypes.c_void_p.from_address(bitgen.ctypes.state_address).value
    return np.frombuffer((ctypes.c_uint64 * 4).from_address(address), dtype=np.uint64)


@functools.lru_cache(maxsize=1)
def _pcg64_word_order():
    """Which of (state low, state high, inc low, inc high) each raw word of
    a PCG64 holds.  numpy stores a 128-bit value as a native __uint128_t
    (low word first on little-endian machines) or as a {high, low} struct;
    setting four distinct words through the public `state` setter and
    reading them back tells which."""
    words = [0x0123456789ABCDEF, 0x1133557799BBDDFF, 0x02468ACE13579BDF, 0x0F1E2D3C4B5A6979]
    bitgen = np.random.PCG64(0)
    state = {"state": words[1] << 64 | words[0], "inc": words[3] << 64 | words[2]}
    bitgen.state = {"bit_generator": "PCG64", "state": state, "has_uint32": 0, "uinteger": 0}
    raw = [int(w) for w in _raw_state_words(bitgen)]
    if sorted(raw) != sorted(words):
        raise RuntimeError(f"unrecognized PCG64 state layout: wrote {words}, read {raw}")
    return tuple(words.index(w) for w in raw)


@functools.lru_cache(maxsize=1)
def _row_generator():
    """The process's one PCG64 for `standard_normal_rows`, the uint64 view
    of its state words and the Generator that draws from it, made once:
    the cache holds the bit generator, so the view stays valid.  Every row
    overwrites the whole state, so no earlier call shows in a later one;
    calls from two threads at once would share it, and the package starts
    no threads."""
    bitgen = np.random.PCG64(0)
    return bitgen, _raw_state_words(bitgen), np.random.Generator(bitgen)


def standard_normal_rows(master_seed, streams, n):
    """(S, n) standard normals whose row i equals
    SeedSpec(master_seed, streams[i]).generator().standard_normal(n).

    `streams` is an (S, K) array of stream words, as in SeedSpec.stream.
    Instead of one SeedSequence and one Generator per row, numpy's
    SeedSequence hash runs for all rows at once on uint32 arrays, each key
    word mixing into the pool the master seed left behind, and so does
    PCG64's seeding step, inc = seq << 1 | 1 and state = (inc + seed) *
    mult + inc (mod 2^128), on 32-bit limbs.  Each row's four state words
    are then written straight into the process's one reused generator,
    which draws the row with numpy's own ziggurat.
    """
    streams = np.asarray(streams, dtype=np.uint32)
    if streams.ndim != 2:
        raise ValueError("streams must be an (S, K) array")
    pool, t0 = _master_pool(int(master_seed))
    pool = np.repeat(pool, streams.shape[0], axis=1)
    pre, post = _key_consts(t0, streams.shape[1])
    h = (streams.T[:, None, :] ^ pre) * post  # hashmix of every (key word, pool word) pair
    h ^= h >> 16
    h *= np.uint32(_MIX_MULT_R)
    for h_word in h:  # mix each key word into the 4 pool words
        pool = np.uint32(_MIX_MULT_L) * pool - h_word
        pool ^= pool >> 16
    state = (pool[_STATE_POOL_ROWS] ^ _STATE_CONSTS[:-1]) * _STATE_CONSTS[1:]
    state ^= state >> 16  # generate_state's 8 words per row
    state = state.astype(np.uint64)
    seq = state[_SEQ_LIMBS]
    inc = seq << 1 & _MASK32
    inc[1:] |= seq[:-1] >> 31
    inc[0] |= 1
    pcg = _add128(_mul128_pcg64(_add128(inc, state[_SEED_LIMBS])), inc)
    limbs = np.concatenate([pcg, inc])
    words = (limbs[0::2] | limbs[1::2] << 32)[list(_pcg64_word_order())].T.copy()  # each row's raw state words
    _, raw, gen = _row_generator()
    out = np.empty((streams.shape[0], n))
    for row, row_words in zip(out, words):
        raw[:] = row_words
        gen.standard_normal(out=row)
    return out


def _pair_log_root(pair_a, pair_b):
    """x = log g where e_a + e_b = 0 for two mismatches e = log1p(A g / (1 +
    U g)) - r, each given as an (A, U, r) triple of arrays: the positive
    root of (1 + T_a g)(1 + T_b g) = e^(r_a + r_b) (1 + U_a g)(1 + U_b g)
    with T = A + U, a quadratic c2 g^2 + c1 g - (e^(r_a + r_b) - 1) taken
    without cancellation.  The sum rises in g, so where it is already
    nonnegative at g = 0 the root is -inf, and where the quadratic never
    turns positive (c2 < 0) it is +inf."""
    (a_a, u_a, r_a), (a_b, u_b, r_b) = pair_a, pair_b
    growth = np.expm1(r_a + r_b)
    t_a, t_b = a_a + u_a, a_b + u_b
    c2 = t_a * t_b - (1.0 + growth) * u_a * u_b
    c1 = t_a + t_b - (1.0 + growth) * (u_a + u_b)
    with np.errstate(divide="ignore", invalid="ignore"):
        root = np.sqrt(c1 * c1 + 4.0 * c2 * growth)
        g = np.where(c1 >= 0, 2.0 * growth / (c1 + root), (root - c1) / (2.0 * c2))
        return np.where(growth > 0, np.log(np.where(c2 >= 0, g, np.inf)), -np.inf)


def minimax_log_gain(mismatch, coefficients, columns):
    """Minimize max_c |e_c(x)| over x in [-LOG_GAIN_BRACKET,
    LOG_GAIN_BRACKET] for many columns at once, each exactly and with a
    certificate.

    `columns` are arrays with one column per problem on the last axis.
    `mismatch(x, *columns)` maps a log-gain per column to the signed
    mismatches (configurations x columns), each of the form
    e_c = log1p(A_c g / (1 + U_c g)) - r_c in g = e^x with A_c, U_c >= 0,
    so each rises in x; `coefficients(c, *columns)` gives (A, U, r) of
    configuration c[k] of every column k.

    Each pass evaluates every configuration at each searched column's x.
    The largest overshoot and undershoot there, over and under, bound the
    minimum from above by max(over, under) and, since every e_c rises,
    from below by min(over, under), or at an end of the interval by the
    side that no point of it can lower: under at the top, over at the
    bottom.  The sign of over - under tells on which side of x the minimum
    lies and narrows the column's bracket.  By Helly's theorem in one
    dimension the minimum is set by one pair of configurations; the pair
    active at x, the configurations of over and under, crosses where
    e_i + e_j = 0, at the root of a quadratic (`_pair_log_root`), which,
    clipped into the bracket, is the next x.  A column is certified when
    the two bounds at a root agree within CERTIFY_TOL: it reports that
    root, its value and the lower bound, and leaves later passes.  A
    rounding error in a root costs a round, never a wrong certificate.

    A column that MINIMAX_ROUNDS root rounds leave uncertified falls back
    to halving its bracket until it has taken MINIMAX_ITERS midpoints,
    counting the first, x = 0.  Its last midpoint then lies within
    80 * 2^-40 of the minimizer, so, as rates move by at most |dx|, its
    best evaluated point (ties to the later) is within about 7e-11 of the
    minimum; it reports that point, its value and a lower bound of -inf.
    With no root rounds the solver is a plain bisection.  A column whose
    mismatch is NaN takes the fallback and keeps x = 0 and value +inf.
    The arithmetic is per column and a certified column is masked out of
    later passes, so each column's result does not depend on which
    columns share the call.  Returns x, value and lower bound arrays.
    """
    n = columns[0].shape[-1]
    x_out, value, lower = np.zeros(n), np.full(n, np.inf), np.full(n, -np.inf)
    act = np.arange(n)  # columns still searched, and their state below
    lo, hi = np.full(n, -LOG_GAIN_BRACKET), np.full(n, LOG_GAIN_BRACKET)
    best_x, best, x = np.zeros(n), np.full(n, np.inf), np.zeros(n)
    rounds = MINIMAX_ROUNDS
    for step in range(rounds + MINIMAX_ITERS):
        if not len(act):
            break
        cols = [c[..., act] for c in columns]
        e = mismatch(x, *cols)
        k = np.arange(len(act))
        top, bottom = e.argmax(axis=0), e.argmin(axis=0)  # the active pair
        over, under = e[top, k], -e[bottom, k]
        val = np.maximum(over, under)
        better = val <= best
        np.copyto(best_x, x, where=better)
        np.copyto(best, val, where=better)
        rising = over >= under
        np.copyto(hi, x, where=rising)
        np.copyto(lo, x, where=~rising)
        if 0 < step <= rounds:  # x is a root
            end = np.where(x >= LOG_GAIN_BRACKET, under, np.where(x <= -LOG_GAIN_BRACKET, over, -np.inf))
            bound = np.maximum(end, np.minimum(over, under))
            done = val - bound <= CERTIFY_TOL
            if done.any():
                x_out[act[done]], value[act[done]], lower[act[done]] = x[done], val[done], bound[done]
                keep = ~done
                act, lo, hi, best_x, best, top, bottom = (a[keep] for a in (act, lo, hi, best_x, best, top, bottom))
                cols = [c[..., keep] for c in cols]
        if step < rounds:
            x = np.clip(_pair_log_root(coefficients(top, *cols), coefficients(bottom, *cols)), lo, hi)
        else:
            x = 0.5 * (lo + hi)
    x_out[act], value[act] = best_x, best
    return x_out, value, lower


def row_norms(v):
    """Euclidean norm of every row (last axis) of a complex stack, each
    equal to np.linalg.norm of that row alone: the same two real dot
    products over the same strides, added and square-rooted."""
    v = np.ascontiguousarray(v, dtype=complex)
    return np.sqrt(np.vecdot(v.real, v.real) + np.vecdot(v.imag, v.imag))


def ordered_sum(terms, start=0.0):
    """Elementwise sum of `terms` added one by one in the order given, after
    `start`: the order of a scalar loop, which numpy's sums over an axis
    and matrix products do not keep."""
    total = start
    for term in terms:
        total = total + term
    return total


def abs_sq(z):
    """|z|^2 elementwise, equal to the numpy-scalar form np.abs(z) ** 2.

    A numpy scalar squares through C pow, while an array's ** 2 is x * x,
    which differs in the last bit for about 1 in 1,000 values;
    float_power keeps pow."""
    return np.float_power(np.abs(z), 2.0)


def sample_complex_gaussian(n, seed):
    """n i.i.d. CN(0, 1) entries (real/imag parts each variance 1/2)."""
    if n < 1:
        raise ValueError("n must be >= 1")
    rng = seed.generator()
    re = rng.standard_normal(n)
    im = rng.standard_normal(n)
    return (re + 1j * im) / np.sqrt(2.0)


def sample_complex_gaussian_matrix(n_rows, n_cols, seed):
    """(n_rows, n_cols) matrix of i.i.d. CN(0, 1) entries."""
    rng = seed.generator()
    re = rng.standard_normal((n_rows, n_cols))
    im = rng.standard_normal((n_rows, n_cols))
    return (re + 1j * im) / np.sqrt(2.0)
