"""The minimax gain solver and reproducible random sampling.

Everything here is deterministic: random draws are pure functions of a
SeedSpec, so simulation results do not depend on execution order or on
how draws are distributed over worker processes.
"""

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
_MASK128 = (1 << 128) - 1
_PCG64_MULT = 0x2360ED051FC65DA44385DF649FCCF645


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


def standard_normal_rows(master_seed, streams, n):
    """(S, n) standard normals whose row i equals
    SeedSpec(master_seed, streams[i]).generator().standard_normal(n).

    `streams` is an (S, K) array of stream words, as in SeedSpec.stream.
    Instead of one SeedSequence and one Generator per row, numpy's
    SeedSequence hash runs for all rows at once on uint32 arrays, each key
    word mixing into the pool the master seed left behind; PCG64's seeding
    step then runs on Python ints, and one reused generator draws each row
    from the resulting state.
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
    state ^= state >> 16
    seeds = state.T.astype("<u4", order="C").view("<u8").tolist()  # generate_state's 4 uint64 words per row
    bitgen = np.random.PCG64(0)  # every row overwrites its state
    gen = np.random.Generator(bitgen)
    out = np.empty((streams.shape[0], n))
    for row, (s_hi, s_lo, q_hi, q_lo) in zip(out, seeds):
        inc = ((q_hi << 64 | q_lo) << 1 | 1) & _MASK128
        pcg = ((inc + (s_hi << 64 | s_lo)) * _PCG64_MULT + inc) & _MASK128
        bitgen.state = {"bit_generator": "PCG64", "state": {"state": pcg, "inc": inc}, "has_uint32": 0, "uinteger": 0}
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
