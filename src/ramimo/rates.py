"""Shannon-rate and sum-rate evaluation for a beam assignment.

The per-user rate with equal power split over the scheduled set S is

    r_m = log(1 + |<v, w_pi(m)>|^2 / (sigma^2 |S| / P + sum_{l != m} |<v, w_pi(l)>|^2))

in nats, where v is the user's effective channel h_hat for true rates or
the scaled quantization vector for rates predicted from feedback.
"""

from dataclasses import dataclass

import numpy as np


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


def rate_with_beams(v, own_beam, other_beams, n_active, params):
    """Rate of one user given explicit beam vectors (not codebook indices)."""
    v = np.asarray(v, dtype=complex)
    sig = np.abs(np.vdot(v, own_beam)) ** 2
    intf = sum(np.abs(np.vdot(v, w)) ** 2 for w in other_beams)
    noise = params.sigma_sq * n_active / params.P
    return float(np.log1p(sig / (noise + intf)))


def user_rate(assign, C, v, m, params):
    """Shannon rate (nats) of user m under `assign` with vector argument v."""
    if m not in assign.pairs:
        raise ValueError(f"user {m} not in assignment")
    v = np.asarray(v, dtype=complex)
    if v.shape != (C.dim,):
        raise ValueError(f"vector dim {v.shape} does not match codebook dim {C.dim}")
    own = C[assign.pairs[m]]
    others = [C[j] for user, j in assign.pairs.items() if user != m]
    return rate_with_beams(v, own, others, len(assign), params)


def sum_rate(assign, C, vectors, params):
    """RateReport over all scheduled users; `vectors` maps user -> v."""
    per_user = {}
    for m in assign.users:
        if m not in vectors:
            raise ValueError(f"no channel/feedback entry for scheduled user {m}")
        per_user[m] = user_rate(assign, C, vectors[m], m, params)
    return RateReport(per_user=per_user, sum=float(sum(per_user.values())))
