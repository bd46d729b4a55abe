"""Shannon-rate and sum-rate evaluation for a beam assignment.

The per-user rate with equal power split over the scheduled set S is

    r_m = log(1 + |<v, w_pi(m)>|^2 / (|S| / P + sum_{l != m} |<v, w_pi(l)>|^2))

in nats, where P is the transmit power over unit noise variance and v is
the user's effective channel h_hat for true rates or the scaled
quantization vector for rates predicted from feedback.
`rate` is that formula on given powers, `rates_with_beams` evaluates it
from beam vectors over a whole stack of rows, and `rate_with_beams` is
its one-row case.
"""

from dataclasses import dataclass

import numpy as np

from .numerics import abs_sq, ordered_sum


@dataclass(frozen=True)
class BeamAssignment:
    """Injective map scheduled-user -> codeword index."""

    pairs: dict

    def __post_init__(self):
        beams = list(self.pairs.values())
        if len(set(beams)) != len(beams):
            raise ValueError(f"beam assignment is not injective: {self.pairs}")
        object.__setattr__(self, "pairs", dict(self.pairs))

    @property
    def users(self):
        return sorted(self.pairs)

    def __len__(self):
        return len(self.pairs)


@dataclass(frozen=True)
class RateReport:
    per_user: dict
    sum: float


def rate(sig, interferers, noise):
    """The rate formula log(1 + sig / (noise + sum of interferers)) in
    nats, elementwise over broadcasting arrays: the interferer powers are
    added in the order given, then the noise.  Every rate of the package,
    predicted or true, comes from here, except the gain search's in-place
    `feedback._excess` pass, which adds in the same order."""
    return np.log1p(sig / (noise + ordered_sum(interferers)))


def rates_with_beams(v, beams, own, noise):
    """Rate of every row of a stack: v (..., n_t) is the row's vector,
    beams (..., k, n_t) the beams of its scheduled set (zero rows pad a
    smaller set and interfere with nothing), own (...) the position of its
    own beam and noise (...) its |S| / P; all four broadcast.

    Powers are squared as numpy scalars square (`numerics.abs_sq`) and the
    interference is summed over the other positions in order, so every
    row's rate equals the computation on that row alone bit for bit.
    """
    gains = abs_sq(np.vecdot(v[..., None, :], beams))
    is_own = np.asarray(own)[..., None] == np.arange(gains.shape[-1])
    # the own power is its row's one nonzero term, so the sum is exact
    sig = np.where(is_own, gains, 0.0).sum(axis=-1)
    return rate(sig, np.moveaxis(np.where(is_own, 0.0, gains), -1, 0), noise)


def rate_with_beams(v, own_beam, other_beams, n_active, params):
    """Rate of one user given explicit beam vectors (not codebook indices):
    the one-row case of `rates_with_beams`."""
    beams = np.array([own_beam, *other_beams], dtype=complex)
    noise = n_active / params.P
    return float(rates_with_beams(np.asarray(v, dtype=complex), beams, 0, noise))
