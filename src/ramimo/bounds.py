"""Closed-form rate-gap bounds and their Monte Carlo verification oracles.

Covers: covering densities of small-dimensional Euclidean balls, the
covering-number constant c(n_t), the per-user quantization-error bound
D(B) <= c(n_t) E[lambda^2] 2^{-B/(n_t-1)}, the SNR-bounded total-gap bound,
the user-selection bound 4 n_s log(1 + SNR n_t D_hat), the
classical zeroforcing comparison curve, Monte Carlo estimators of the two
error functionals, and an explicit quantizer on the probability simplex
for the n_t = 3 construction.
"""

import math
from dataclasses import dataclass, field
from itertools import combinations_with_replacement

import numpy as np

from .feedback import beam_powers, cross_gram, direction_errors
from .numerics import abs_sq, row_norms

# Tightest known covering densities Theta(B_2^d) for low dimensions
# (Kershner d=2; Bambah d=3; Delone & Ryshkov d=4).
_COVERING_DENSITY = {2: 1.2091, 3: 1.4635, 4: 1.7655}


def covering_density(d):
    """Covering density of d-dimensional Euclidean balls.

    Sharp constants for d <= 4, the Rogers bound 4 d log d (natural log)
    beyond.
    """
    if d < 2:
        raise ValueError("d must be >= 2")
    if d in _COVERING_DENSITY:
        return _COVERING_DENSITY[d]
    return 4.0 * d * math.log(d)


def c_nt(n_t):
    """Covering constant entering the quantization-error bound.

    (Theta(B_2^{n_t-1}) * binom(2 n_t - 2, n_t - 1)
       * Gamma(1 + (n_t-1)/2) * sqrt(n_t) / ((n_t-1)! * pi^{(n_t-1)/2}))^{1/(n_t-1)}
    """
    if n_t < 3:
        raise ValueError("n_t must be >= 3")
    d = n_t - 1
    val = (
        covering_density(d)
        * math.comb(2 * d, d)
        * math.gamma(1.0 + d / 2.0)
        * math.sqrt(n_t)
        / (math.factorial(d) * math.pi ** (d / 2.0))
    )
    return val ** (1.0 / d)


def lemma3_validity_threshold(n_t):
    """Feedback bits above which the quantization-error bound applies."""
    d = n_t - 1
    return d / 2.0 * math.log2(d * math.sqrt(d))


def lemma3_bound(B, n_t, mean_lambda_sq):
    """Per-user error bound c(n_t) E[lambda^2] 2^{-B/(n_t-1)}."""
    return c_nt(n_t) * mean_lambda_sq * 2.0 ** (-B / (n_t - 1))


def _lemma2_inner(D, n_t, eps_hi=1e6):
    """min over eps in [1e-12, eps_hi] of (1+eps) D / (1 + eps D / (n_t - 1)).

    The objective is a ratio of two affine functions of eps, so it is
    monotone (increasing for D < n_t - 1, decreasing above, flat at
    equality) and its minimum sits at an end of the interval.
    """
    if D <= 0:
        return 0.0

    def f(eps):
        return (1.0 + eps) * D / (1.0 + eps * D / (n_t - 1))

    return min(f(1e-12), f(eps_hi))


def lemma2_bound(D_values, n_t):
    """Total worst-case gap bound 2 sum_m log(1 + min_eps ...); stays finite
    as the per-user errors grow, capturing SNR-boundedness."""
    total = 0.0
    for D in D_values:
        if D < 0:
            raise ValueError("error values must be nonnegative")
        total += math.log1p(_lemma2_inner(float(D), n_t))
    return 2.0 * total


def ra_nt3_gap(B, snr, n_t=3):
    """Closed-form total gap for the explicit n_t = 3 simplex construction:
    2 n_t log(1 + SNR * 2^{-B/(n_t-1) - 1})."""
    if n_t != 3:
        raise ValueError("the explicit simplex construction is for n_t = 3")
    return 2.0 * n_t * math.log1p(snr * 2.0 ** (-B / (n_t - 1) - 1))


def jindal_gap(B, n_t, snr):
    """Per-user gap of the classical zeroforcing/chordal analysis:
    log(1 + SNR * 2^{-B/(n_t-1)}).  The rate-approximation argument equals
    this curve evaluated at B + (n_t - 1) bits."""
    if n_t < 2:
        raise ValueError(f"n_t must be >= 2, got {n_t}")
    return math.log1p(snr * 2.0 ** (-B / (n_t - 1)))


def theorem1_bound(n_s, n_t, snr, D_hat):
    """User-selection bound 4 n_s log(1 + SNR n_t D_hat)."""
    if D_hat < 0:
        raise ValueError("D_hat must be nonnegative")
    return 4.0 * n_s * math.log1p(snr * n_t * D_hat)


def covering_number_bound(d, delta):
    """Upper bound on the number of radius-delta balls covering the simplex:
    Theta(B_2^d) binom(2d, d) vol(simplex) / vol(ball)."""
    if d < 2:
        raise ValueError("d must be >= 2")
    if delta <= 0:
        raise ValueError("delta must be positive")
    vol_simplex = math.sqrt(d + 1) / math.factorial(d)
    vol_ball = math.pi ** (d / 2.0) / math.gamma(1.0 + d / 2.0) * delta**d
    return covering_density(d) * math.comb(2 * d, d) * vol_simplex / vol_ball


def _min_weighted_gaps(psis, phi_table, lam_tildes):
    """min over (theta_tilde in [0, 1], codeword nu) of max_w |lam_tilde
    psi_w - theta_tilde phi_w| of every row of psis (n, |C|) with its
    lam_tilde, exactly.

    With a_w = lam_tilde psi_w and b_w = phi_w >= 0, every set
    {t in [0, 1] : |a_w - t b_w| <= c} is an interval, so by Helly's
    theorem in one dimension the minimax over t is the largest minimax of
    an overshoot t b_i - a_i against an undershoot a_j - t b_j, over every
    ordered pair of beams (i, j).  That pair's minimum over [0, 1] sits at
    their crossing t = (a_i + a_j) / (b_i + b_j), clipped to [0, 1] (0
    where both lines are flat and meet at zero).  The crossing of (i, j)
    is that of (j, i) bit for bit, and an undershoot is exactly the
    negated overshoot, so the two orders of one unordered pair (i <= j)
    together give max(|t b_i - a_i|, |t b_j - a_j|) at one crossing.
    """
    a = (lam_tildes[:, None] * psis)[:, None, :]  # (rows, 1, beams)
    b = phi_table  # (codewords, beams)
    value = np.zeros((len(psis), len(b)))
    for i, j in combinations_with_replacement(range(b.shape[1]), 2):
        with np.errstate(divide="ignore", invalid="ignore"):
            t = np.fmin(np.fmax((a[..., i] + a[..., j]) / (b[:, i] + b[:, j]), 0.0), 1.0)  # NaN to 0
        for w in {i, j}:
            np.maximum(value, np.abs(t * b[:, w] - a[..., w]), out=value)
    return value.min(axis=1)


_EMPIRICAL_D_ROWS = 1 << 14  # (sample, codeword) entries per stacked pass


def empirical_D(B, n_t, C, feedback_family, params, samples, seed):
    """Monte Carlo estimates (D_est, D_hat_est) of the two error functionals.

    D_est averages (1/(1 - lam_tilde)) min_{theta_tilde, nu} max_w
    |lam_tilde psi_w - theta_tilde phi_w|; D_hat_est averages the
    direction-only min-max error.  The outer minimum over all codebooks in
    the definitions is not searched: the supplied family is evaluated, so
    both numbers are upper estimates for the functionals at the optimum.
    Sample i is h_hat = (x + 1j y) / sqrt(2), where x, then y, are the next
    n_t standard normals of seed.generator(), drawn sample after sample;
    this is the one-point case of `empirical_D_block`.
    """
    return empirical_D_block(B, n_t, C, feedback_family, [params.P], samples, [seed])[0]


def empirical_D_block(B, n_t, C, feedback_family, P, samples, seeds):
    """`empirical_D` of every point (power P[k], seeds[k]), as a list of
    (D_est, D_hat_est), each equal to its one-point call bit for bit.

    Point k's samples come in order from one generator, seeds[k].generator().
    Batches of samples run across the points, and their gains, lam_tilde
    and alignments psi are computed as stacked rows (each equal to the
    one-sample arithmetic bit for bit), and their weighted minima taken
    together; each point's averages still add its samples one by one in
    order.
    """
    if samples < 1:
        raise ValueError("samples must be >= 1")
    if len(P) != len(seeds):
        raise ValueError("P and seeds must have one entry per point")
    V = feedback_family(B) if callable(feedback_family) else feedback_family
    phi = cross_gram(V, C)
    gens = [s.generator() for s in seeds]
    P = np.asarray(P, dtype=float)
    d_sum = [0.0] * len(seeds)
    dhat_sum = [0.0] * len(seeds)
    chunk = max(1, _EMPIRICAL_D_ROWS // len(V))
    for lo in range(0, len(seeds) * samples, chunk):
        point = np.arange(lo, min(lo + chunk, len(seeds) * samples)) // samples  # rows run point by point
        counts = np.bincount(point - point[0])
        normals = np.concatenate([gens[point[0] + k].standard_normal((n, 2 * n_t)) for k, n in enumerate(counts)])
        h_hat = (normals[:, :n_t] + 1j * normals[:, n_t:]) / np.sqrt(2.0)
        gain_sq = abs_sq(row_norms(h_hat))
        lam_sq = P[point] * gain_sq / n_t
        lam_tilde = lam_sq / (1.0 + lam_sq)
        psi = beam_powers(h_hat / np.sqrt(gain_sq)[:, None], C)
        weighted = _min_weighted_gaps(psi, phi, lam_tilde)
        direction = direction_errors(psi, phi).min(axis=1)
        for k, w, lt, dr in zip(point.tolist(), weighted.tolist(), lam_tilde.tolist(), direction.tolist()):
            d_sum[k] += w / (1.0 - lt)
            dhat_sum[k] += dr
    return [(d / samples, dh / samples) for d, dh in zip(d_sum, dhat_sum)]


@dataclass(frozen=True)
class BoundsReport:
    """Evaluated analytical quantities for one (n_t, B, SNR) point."""

    n_t: int
    B: int
    n_s: int
    mean_lambda_sq: float
    c_nt: float | None
    D_bound: float | None
    lemma2_bound: float | None
    theorem1_bound: float | None
    jindal_gap: float
    ra_nt3_gap: float | None
    validity: bool


def bounds_report(n_t, B, snr, n_s):
    """Closed-form BoundsReport; mean receive SNR is the analytic SNR
    (Rayleigh entries have unit mean power, so E[lambda^2] = SNR)."""
    if B < 0:
        raise ValueError(f"B must be >= 0, got {B}")
    mean_lambda_sq = snr
    valid = B >= lemma3_validity_threshold(n_t) if n_t >= 3 else True
    if n_t >= 3:
        c = c_nt(n_t)
        d_bound = lemma3_bound(B, n_t, mean_lambda_sq)
        lem2 = lemma2_bound([d_bound] * n_t, n_t)
        d_hat_bound = c * 2.0 ** (-B / (n_t - 1))
        th1 = theorem1_bound(n_s, n_t, snr, d_hat_bound)
    else:
        c = d_bound = lem2 = th1 = None
    return BoundsReport(
        n_t=n_t,
        B=B,
        n_s=n_s,
        mean_lambda_sq=mean_lambda_sq,
        c_nt=c,
        D_bound=d_bound,
        lemma2_bound=lem2,
        theorem1_bound=th1,
        jindal_gap=jindal_gap(B, n_t, snr),
        ra_nt3_gap=ra_nt3_gap(B, snr) if n_t == 3 else None,
        validity=bool(valid),
    )


# ---------------------------------------------------------------------------
# Simplex quantizer (n_t = 3): quantization of squared-alignment vectors,
# which live on the standard 2-simplex.
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class SimplexQuantizer:
    """2^B quantization points for vectors on the standard 2-simplex.

    `delta` is the worst-case max-norm error 2^{-B/2 - 1} of the
    triangular-cell construction; `measure_worst_case_error` reports the
    covering radius of `points` over the simplex by dense sampling.  Only
    the quantized vectors must lie on the simplex: each point is the
    max-norm centre of its cell, which sits off the simplex plane.
    """

    points: np.ndarray  # (2^B, 3), nonnegative, coordinate sums 1 +- delta
    B: int
    delta: float
    cells: np.ndarray = field(compare=False, default=None)  # (2^B, 3, 3) cell vertices

    def __post_init__(self):
        pts = np.asarray(self.points, dtype=float)
        pts.setflags(write=False)
        object.__setattr__(self, "points", pts)


def _triangulation_cells(k):
    """Vertices of the k^2 upward/downward cells of the edge-k subdivision,
    in barycentric coordinates."""
    cells = []
    for b in range(k):
        for a in range(k - b):
            v0 = np.array([a, b, k - a - b], dtype=float)
            up = np.array([v0, v0 + [1, 0, -1], v0 + [0, 1, -1]]) / k
            cells.append(up)
            if a + b + 1 < k:
                down = np.array([v0 + [1, 0, -1], v0 + [0, 1, -1], v0 + [1, 1, -2]]) / k
                cells.append(down)
    return np.array(cells)


def simplex_quantizer(B):
    """Quantizer from the regular 2^B-cell triangular subdivision (B even).

    Each cell contributes the centre of its bounding box.  Every coordinate
    of a cell spans an interval of length 1/k (k = 2^{B/2}), so the centre
    is within 1/(2k) = 2^{-B/2-1} of every point of the cell in the max
    norm: the cells are those of a per-coordinate uniform quantizer cut by
    the simplex plane.  The centres are nonnegative but lie off the plane
    (coordinate sums 1 + delta for upward cells, 1 - delta for downward
    ones).  No point set on the plane can reach delta: at B = 2 each
    corner needs its own point, so the fourth must cover {all x_i <= 1/2}
    alone, which only (1/4, 1/4, 1/4) does.  The cell centroid, by
    contrast, is 2/(3k) = (4/3) delta from its cell's vertices.
    """
    if B % 2 != 0 or B < 2:
        raise ValueError("the triangular construction needs even B >= 2")
    k = 2 ** (B // 2)
    cells = _triangulation_cells(k)
    points = 0.5 * (cells.min(axis=1) + cells.max(axis=1))
    return SimplexQuantizer(points=points, B=B, delta=2.0 ** (-B / 2.0 - 1.0), cells=cells)


def _simplex_probe_grid(n):
    """All barycentric grid points (i, j, n-i-j)/n, about n^2/2 probes."""
    i, j = np.meshgrid(np.arange(n + 1), np.arange(n + 1), indexing="ij")
    keep = (i + j) <= n
    i = i[keep]
    j = j[keep]
    pts = np.stack([i, j, n - i - j], axis=1) / n
    return pts


def measure_worst_case_error(quantizer, n_probes=10**6):
    """Covering radius max_x min_q ||x - q||_inf by dense grid sampling.

    The grid resolution is chosen so the probe count is at least n_probes
    and grid nodes include every cell vertex of the construction.
    """
    if n_probes < 1:
        raise ValueError(f"n_probes must be >= 1, got {n_probes}")
    k = 2 ** (quantizer.B // 2)
    n = int(math.ceil(math.sqrt(2.0 * n_probes)))
    n = ((n + k - 1) // k) * k  # align so cell vertices are probed exactly
    probes = _simplex_probe_grid(n)
    pts = quantizer.points
    worst = 0.0
    chunk = 65536
    for s in range(0, probes.shape[0], chunk):
        block = probes[s : s + chunk]
        d = np.abs(block[:, None, :] - pts[None, :, :]).max(axis=2).min(axis=1)
        worst = max(worst, float(d.max()))
    return worst
