"""The minimax gain solver and reproducible random sampling.

Everything here is deterministic: random draws are pure functions of a
SeedSpec, so simulation results do not depend on execution order or on
how draws are distributed over worker processes.
"""

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
        """Child stream for e.g. (experiment, draw index)."""
        return SeedSpec(self.master_seed, self.stream + tuple(_key_to_int(k) for k in keys))

    def generator(self):
        seq = np.random.SeedSequence(self.master_seed, spawn_key=self.stream)
        return np.random.default_rng(seq)


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


def minimax_log_gain(mismatch, coefficients, columns, x0=None):
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

    The first pass is at x = 0, or at x0, one start per column inside the
    bracket, such as the root of the pair the caller expects to be active.
    Both bounds hold at any x, so a start counts as a root round: a column
    may certify there, and MINIMAX_ROUNDS root rounds follow.  A column
    certified at a root reports the root of its final active pair, which
    does not depend on the path taken, so a start moves no result except
    where two pairs certify at different roots.

    A column that the root rounds leave uncertified falls back to halving
    its bracket until it has taken MINIMAX_ITERS midpoints, counting the
    first pass at x = 0 but not a start x0, which is no midpoint.  Its
    last midpoint then lies within 80 * 2^-40 of the minimizer, so, as
    rates move by at most |dx|, its best evaluated point (ties to the
    later) is within about 7e-11 of the minimum; it reports that point,
    its value and a lower bound of -inf.  With no root rounds and no start
    the solver is a plain bisection.  A column whose mismatch is NaN takes
    the fallback and keeps x = 0 and value +inf.  The arithmetic is per
    column and a certified column is masked out of later passes, so each
    column's result does not depend on which columns share the call.
    Returns x, value and lower bound arrays.
    """
    n = columns[0].shape[-1]
    x_out, value, lower = np.zeros(n), np.full(n, np.inf), np.full(n, -np.inf)
    act = np.arange(n)  # columns still searched, and their state below
    lo, hi = np.full(n, -LOG_GAIN_BRACKET), np.full(n, LOG_GAIN_BRACKET)
    best_x, best = np.zeros(n), np.full(n, np.inf)
    x = np.zeros(n) if x0 is None else np.array(x0, dtype=float)
    rounds, first = MINIMAX_ROUNDS, int(x0 is None)  # first: the first step whose x is a root
    for step in range(rounds + MINIMAX_ITERS + 1 - first):
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
        if first <= step <= rounds:  # x is a root
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
    """(n_rows, n_cols) matrix of i.i.d. CN(0, 1) entries, the
    `sample_complex_gaussian` vector of n_rows * n_cols entries row by row."""
    return sample_complex_gaussian(n_rows * n_cols, seed).reshape(n_rows, n_cols)
