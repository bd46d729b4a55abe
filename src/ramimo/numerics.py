"""The minimax gain solver and reproducible random sampling.

Everything here is deterministic: random draws are pure functions of a
SeedSpec, so simulation results do not depend on execution order or on
how draws are distributed over worker processes.
"""

import zlib
from dataclasses import dataclass

import numpy as np

LOG_GAIN_BRACKET = 40.0  # x = log theta^2 in [-40, 40]: theta^2 from 4e-18 to 2e17
MINIMAX_ITERS = 40  # halvings of the bracket: 80 * 2^-40 ~ 7e-11 in x
PRUNE_MARGIN = 1e-9  # slack over a group's best before a column is dropped, far above rounding


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


def minimax_log_gain(excess, columns, group):
    """Minimize max(over(x), under(x)) over x for many columns at once, and
    keep only the columns that can still win their group.

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

    Consecutive runs of `group` columns form a group, of which the caller
    keeps only the minimum.  Once a column's bracket is [lo, hi], every
    later midpoint scores at least max(over(lo), under(hi)); a column whose
    bound exceeds its group's best value by more than PRUNE_MARGIN cannot
    win, is dropped, and gets x = NaN and value +inf.  The held arrays are
    compacted whenever the live columns are at most half of them.  `excess`
    must treat every column alone, so the survivors see the same
    arithmetic, and return the same (x, value) bit for bit, as with
    group = 1, which prunes nothing.
    """
    n = columns[0].shape[-1]
    out_x = np.full(n, np.nan)
    out = np.full(n, np.inf)
    if n == 0:
        return out_x, out
    held = np.arange(n)  # original index of every column still held
    lo = np.full(n, -LOG_GAIN_BRACKET)
    hi = np.full(n, LOG_GAIN_BRACKET)
    best_x = np.zeros(n)
    best = np.full(n, np.inf)
    over_lo = np.full(n, -np.inf)  # over(lo); -inf until lo is evaluated
    under_hi = np.full(n, -np.inf)  # under(hi); -inf until hi is evaluated
    live = np.ones(n, dtype=bool)
    starts = np.arange(0, n, group)  # first held column of every group
    sizes = np.diff(starts, append=n)
    for it in range(MINIMAX_ITERS):
        x = 0.5 * (lo + hi)
        over, under = excess(x, *columns)
        val = np.maximum(over, under)
        better = val <= best
        np.copyto(best_x, x, where=better)
        np.copyto(best, val, where=better)
        rising = over >= under
        np.copyto(hi, x, where=rising)
        np.copyto(under_hi, under, where=rising)
        falling = ~rising
        np.copyto(lo, x, where=falling)
        np.copyto(over_lo, over, where=falling)
        if it == MINIMAX_ITERS - 1:
            break
        # NaN bounds compare false and keep their column
        bound = np.minimum(best, np.maximum(over_lo, under_hi))
        group_best = np.repeat(np.minimum.reduceat(best, starts), sizes)
        live &= ~(bound > group_best + PRUNE_MARGIN)
        if 2 * np.count_nonzero(live) <= len(live):
            held = held[live]
            columns = [c[..., live] for c in columns]
            lo, hi, best_x, best, over_lo, under_hi = (a[live] for a in (lo, hi, best_x, best, over_lo, under_hi))
            gid = held // group
            starts = np.flatnonzero(np.r_[True, gid[1:] != gid[:-1]])
            sizes = np.diff(starts, append=len(held))
            live = np.ones(len(held), dtype=bool)
    out_x[held[live]] = best_x[live]
    out[held[live]] = best[live]
    return out_x, out


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
