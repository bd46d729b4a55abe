"""Reference implementations that more than one test module compares against."""

import numpy as np

from ramimo.numerics import LOG_GAIN_BRACKET, MINIMAX_ITERS


def plain_bisection(mismatch, columns):
    """The minimum over x in [-LOG_GAIN_BRACKET, LOG_GAIN_BRACKET] of
    max |e_c(x)| of every column by plain bisection, written out as a
    reference: MINIMAX_ITERS midpoints on the sign of over - under (the
    largest overshoot against the largest undershoot), returning the best
    evaluated x and its value, ties to the later midpoint.
    `mismatch(x, *columns)` gives the signed mismatches (configurations x
    columns), each nondecreasing in x; the last midpoint lies within
    80 * 2^-40 of the crossing."""
    n = columns[0].shape[-1]
    lo, hi = np.full(n, -LOG_GAIN_BRACKET), np.full(n, LOG_GAIN_BRACKET)
    best_x, best = np.zeros(n), np.full(n, np.inf)
    for _ in range(MINIMAX_ITERS):
        x = 0.5 * (lo + hi)
        d = mismatch(x, *columns)
        over, under = d.max(axis=0), -d.min(axis=0)
        val = np.maximum(over, under)
        better = val <= best
        best_x, best = np.where(better, x, best_x), np.where(better, val, best)
        rising = over >= under
        hi, lo = np.where(rising, x, hi), np.where(rising, lo, x)
    return best_x, best


def single_user_minimax(r_single, kappa, phi, points=1 << 14):
    """min over x in [-LOG_GAIN_BRACKET, LOG_GAIN_BRACKET] of
    max_j |log1p(kappa_p phi_vj e^x) - r_pj| for every (problem p,
    codeword v), on a dense grid of `points` evenly spaced x, ends
    included, for single-user true rates r_single (problems, beams), scales
    kappa (problems,) and codeword powers phi (codewords, beams).  Returns
    the grid minima and half the grid step: every mismatch moves by less
    than |dx| in x, so each exact minimum lies at most that far below its
    grid minimum, and not above it."""
    x = np.linspace(-LOG_GAIN_BRACKET, LOG_GAIN_BRACKET, points)
    gain = np.exp(x)
    out = np.empty((len(r_single), len(phi)))
    for p, (r, k) in enumerate(zip(r_single, kappa)):
        e = np.log1p((k * phi)[:, :, None] * gain) - r[:, None]  # (codewords, beams, points)
        out[p] = np.abs(e).max(axis=1).min(axis=1)
    return out, 0.5 * (x[1] - x[0])


def jumped_generator(family, d):
    """Draw d's generator of the SeedSpec stream `family`, built with
    numpy's public API alone: the family's PCG64 jumped d times."""
    seq = np.random.SeedSequence(family.master_seed, spawn_key=family.stream)
    return np.random.Generator(np.random.PCG64(seq).jumped(d))


def reference_draw_channels(params, F, rho, rng, n_users):
    """(H, subcarriers) of each of n_users users drawn from the generator
    `rng`, written without the block sampler: one standard_normal call
    sliced user by user, then subcarrier, real/imaginary part, n_r and n_t,
    and the Gauss-Markov chain run subcarrier by subcarrier for each user
    alone."""
    size = F * 2 * params.n_r * params.n_t
    normals = rng.standard_normal(n_users * size)
    scale = np.sqrt(max(0.0, 1.0 - rho * rho))
    out = []
    for m in range(n_users):
        x = normals[m * size : (m + 1) * size].reshape(F, 2, params.n_r, params.n_t)
        mats = [(x[f, 0] + 1j * x[f, 1]) / np.sqrt(2.0) for f in range(F)]
        for f in range(1, F):
            mats[f] = rho * mats[f - 1] + scale * mats[f]
        out.append((np.mean(mats, axis=0) if F > 1 else mats[0], np.array(mats)))
    return out
