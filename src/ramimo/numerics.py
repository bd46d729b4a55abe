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
MINIMAX_ITERS = 40  # halvings of the bracket: 80 * 2^-40 ~ 7e-11 in x


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


def standard_normal_rows(master_seed, streams, n):
    """(S, n) standard normals whose row i equals
    SeedSpec(master_seed, streams[i]).generator().standard_normal(n).

    `streams` is an (S, K) array of stream words, as in SeedSpec.stream.
    Instead of one SeedSequence and one Generator per row, numpy's
    SeedSequence hash runs for all rows at once on uint32 arrays, each key
    word mixing into the pool the master seed left behind, and so does
    PCG64's seeding step, inc = seq << 1 | 1 and state = (inc + seed) *
    mult + inc (mod 2^128), on 32-bit limbs.  Each row's four state words
    are then written straight into one reused generator, which draws the
    row with numpy's own ziggurat.
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
    bitgen = np.random.PCG64(0)  # every row overwrites its state
    raw = _raw_state_words(bitgen)
    gen = np.random.Generator(bitgen)
    out = np.empty((streams.shape[0], n))
    for row, row_words in zip(out, words):
        raw[:] = row_words
        gen.standard_normal(out=row)
    return out


def minimax_log_gain(excess, columns):
    """Minimize max(over(x), under(x)) over x for many columns at once.

    `columns` are arrays with one column per problem on the last axis;
    `excess(x, *columns)` maps a log-gain per column to the pair (over,
    under): the largest overshoot and the largest undershoot of a
    predicted quantity over its target, column by column.  Over must be
    nondecreasing and under nonincreasing in x, so the min-max sits where
    they cross, and a bisection on the sign of over - under finds that
    crossing for every column at once.  Returns the best evaluated x and
    its value max(over, under); ties go to the later midpoint, so where the
    value is flat (an undershoot that no gain can change) x settles at the
    upper end of the flat stretch, where over meets under.  The last
    midpoint lies within 80 * 2^-40 of the crossing, so when both sides
    change by at most |dx| (true of rates in log-gain) the value is within
    about 7e-11 of the minimum over [-LOG_GAIN_BRACKET, LOG_GAIN_BRACKET].
    A column whose excess is NaN keeps x = 0 and value +inf.  When `excess`
    treats every column alone, each column's (x, value) does not depend on
    which other columns share the call.
    """
    n = columns[0].shape[-1]
    lo = np.full(n, -LOG_GAIN_BRACKET)
    hi = np.full(n, LOG_GAIN_BRACKET)
    best_x = np.zeros(n)
    best = np.full(n, np.inf)
    for _ in range(MINIMAX_ITERS):
        x = 0.5 * (lo + hi)
        over, under = excess(x, *columns)
        val = np.maximum(over, under)
        better = val <= best
        np.copyto(best_x, x, where=better)
        np.copyto(best, val, where=better)
        rising = over >= under
        np.copyto(hi, x, where=rising)
        np.copyto(lo, x, where=~rising)
    return best_x, best


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
