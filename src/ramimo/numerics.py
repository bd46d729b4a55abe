"""Complex linear-algebra primitives, the minimax gain solver and
reproducible random sampling.

Everything here is deterministic: random draws are pure functions of a
SeedSpec, so simulation results do not depend on execution order or on
how draws are distributed over worker processes.
"""

import zlib
from dataclasses import dataclass

import numpy as np
import scipy.linalg

HERMITIAN_TOL = 1e-10
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


def inner(a, b):
    """Inner product a^H b (conjugate on the first argument)."""
    a = np.asarray(a)
    b = np.asarray(b)
    if a.shape != b.shape:
        raise ValueError(f"dimension mismatch: {a.shape} vs {b.shape}")
    return complex(np.vdot(a, b))


def norm2(a):
    return float(np.linalg.norm(np.asarray(a), 2))


def norm1(a):
    return float(np.sum(np.abs(np.asarray(a))))


def norm_inf(a):
    a = np.asarray(a)
    return float(np.max(np.abs(a))) if a.size else 0.0


def _check_hermitian(M, name):
    M = np.asarray(M, dtype=complex)
    if M.ndim != 2 or M.shape[0] != M.shape[1]:
        raise ValueError(f"{name} must be square, got shape {M.shape}")
    if np.max(np.abs(M - M.conj().T)) > HERMITIAN_TOL:
        raise ValueError(f"{name} is not Hermitian within {HERMITIAN_TOL}")
    # Symmetrize to guard accumulated roundoff before factorizing.
    return 0.5 * (M + M.conj().T)


def _fix_phase(u):
    """Rotate a vector so its largest-magnitude entry is real positive."""
    i = int(np.argmax(np.abs(u)))
    if np.abs(u[i]) > 0:
        u = u * (np.conj(u[i]) / np.abs(u[i]))
    return u


def generalized_rayleigh_max(A, B):
    """Maximize (u^H A u) / (u^H B u) over u != 0.

    A must be Hermitian, B Hermitian positive definite.  Returns the
    maximum value and a unit-norm attaining vector.  Solved as a dense
    generalized Hermitian eigenproblem; intended for the small antenna
    counts (<= 8) used throughout.
    """
    A = _check_hermitian(A, "A")
    B = _check_hermitian(B, "B")
    try:
        w, v = scipy.linalg.eigh(A, B)
    except (np.linalg.LinAlgError, scipy.linalg.LinAlgError) as exc:
        raise ValueError(f"B is singular or not positive definite: {exc}") from exc
    u = v[:, -1]
    u = u / np.linalg.norm(u)
    return float(w[-1]), _fix_phase(u)


def minimax_log_gain(excess, n):
    """Minimize max(over(x), under(x)) over x for n problems at once.

    `excess(x)` maps a length-n array of log-gains to the pair (over,
    under): the largest overshoot and the largest undershoot of a
    predicted quantity over its target.  Over must be nondecreasing and
    under nonincreasing in x, so the min-max sits where they cross, and a
    bisection on the sign of over - under finds that crossing for every
    problem at once.  Returns the best evaluated x and its value
    max(over, under); ties go to the later midpoint, so where the value is
    flat (an undershoot that no gain can change) x settles at the upper
    end of the flat stretch, where over meets under.  The last midpoint
    lies within 80 * 2^-40 of the crossing, so when both sides change by
    at most |dx| (true of rates in log-gain) the value is within about
    7e-11 of the minimum over [-LOG_GAIN_BRACKET, LOG_GAIN_BRACKET].
    """
    lo = np.full(n, -LOG_GAIN_BRACKET)
    hi = np.full(n, LOG_GAIN_BRACKET)
    best_x = np.zeros(n)
    best = np.full(n, np.inf)
    for _ in range(MINIMAX_ITERS):
        x = 0.5 * (lo + hi)
        over, under = excess(x)
        val = np.maximum(over, under)
        better = val <= best
        best_x = np.where(better, x, best_x)
        best = np.where(better, val, best)
        rising = over >= under
        hi = np.where(rising, x, hi)
        lo = np.where(rising, lo, x)
    return best_x, best


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
