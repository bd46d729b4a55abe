"""Channel generation and receive filtering.

Channels are i.i.d. Rayleigh (CN(0,1) entries), optionally drawn per
subcarrier with a Gauss-Markov correlation chain across frequency.  A
receive filter u turns the matrix channel H into the effective vector
channel h_hat = H^H u.  Every user applies one filter, the MRC filter of
its (subcarrier-averaged) channel, and the same effective channel feeds
the feedback, the scheduler and the realized rates, so with n_r > 1 the
base station predicts exactly the receiver the user runs.
"""

from dataclasses import dataclass

import numpy as np

from .numerics import SeedSpec, standard_normal_rows
from .numerics import sample_complex_gaussian_matrix  # noqa: F401  (perfbench/spans.py wraps this name)

_F_KEY = SeedSpec(0).derive("f").stream[0]  # stream word of the subcarrier key "f"


@dataclass(frozen=True)
class SystemParams:
    """Static system dimensioning and power budget.

    n_t/n_r: transmit/receive antennas; n_s: maximum users scheduled on one
    resource; P: total transmit power; sigma_sq: noise variance (linear).
    """

    n_t: int
    n_r: int = 1
    n_s: int = 2
    P: float = 1.0
    sigma_sq: float = 1.0

    def __post_init__(self):
        if self.n_t < 1 or self.n_r < 1 or self.n_s < 1:
            raise ValueError("n_t, n_r, n_s must all be >= 1")
        if self.n_s > self.n_t:
            raise ValueError(f"n_s={self.n_s} must not exceed n_t={self.n_t}")
        if self.P <= 0 or self.sigma_sq <= 0:
            raise ValueError("P and sigma_sq must be positive")

    @property
    def snr(self):
        return self.P / self.sigma_sq

    def with_snr_db(self, snr_db):
        """Same dimensioning with P/sigma_sq set to the given SNR in dB."""
        return SystemParams(self.n_t, self.n_r, self.n_s, P=10.0 ** (snr_db / 10.0), sigma_sq=1.0)


@dataclass(frozen=True)
class UserChannel:
    """One user's channel: H is the (subcarrier-averaged) n_r x n_t matrix.

    For frequency-selective runs, `subcarriers` holds the F per-subcarrier
    matrices and H is their arithmetic mean (the quantity averaged feedback
    operates on); rho is the chain correlation used to draw them.
    """

    H: np.ndarray
    subcarriers: np.ndarray | None = None
    rho: float = 0.0

    def __post_init__(self):
        H = np.asarray(self.H, dtype=complex)
        if H.ndim != 2:
            raise ValueError("H must be a 2-D matrix")
        if not np.all(np.isfinite(H)):
            raise ValueError("channel entries must be finite")
        object.__setattr__(self, "H", H)
        if self.subcarriers is not None:
            sub = np.asarray(self.subcarriers, dtype=complex)
            if sub.ndim != 3 or sub.shape[1:] != H.shape or sub.shape[0] < 1:
                raise ValueError("subcarriers must be a (F, n_r, n_t) stack matching H")
            object.__setattr__(self, "subcarriers", sub)

    @property
    def F(self):
        return 1 if self.subcarriers is None else self.subcarriers.shape[0]

    def per_subcarrier(self):
        """(F, n_r, n_t) view; a single frequency-flat draw yields F=1."""
        if self.subcarriers is None:
            return self.H[None, :, :]
        return self.subcarriers


@dataclass(frozen=True)
class EffectiveChannel:
    """Effective vector channel of one user after receive filtering.

    h_hat = H^H u in raw units; h = h_hat normalized; lambda_sq is the
    per-antenna-normalized receive SNR P ||h_hat||^2 / (n_t sigma_sq).
    """

    h_hat: np.ndarray
    lambda_sq: float
    h: np.ndarray


def draw_channels(params, F, rho, master_seed, streams):
    """Draw the Rayleigh channel of every user stream in `streams`, each over
    F correlated subcarriers.

    `streams` is an (S, K) array of stream words: row i is the user stream
    of SeedSpec(master_seed, streams[i]).  Subcarriers follow
    H_{f+1} = rho * H_f + sqrt(1 - rho^2) * W_{f+1} with i.i.d. CN(0,1)
    innovations, so each subcarrier is marginally CN(0,1) and neighbors
    have correlation coefficient rho.  W_f of a user comes from its stream
    extended by derive("f", f); all (user, subcarrier) streams are drawn in
    one `standard_normal_rows` call, and the chain runs across all users
    at once.
    """
    if F < 1:
        raise ValueError("F must be >= 1")
    if not 0.0 <= rho <= 1.0:
        raise ValueError("rho must be in [0, 1]")
    streams = np.asarray(streams, dtype=np.uint32)
    if not len(streams):
        return []
    if streams.ndim != 2:
        raise ValueError("streams must be an (S, K) array of stream words")
    n_users, n_words = streams.shape
    sub = np.empty((n_users, F, n_words + 2), dtype=np.uint32)  # the streams of derive("f", f)
    sub[:, :, :n_words] = streams[:, None, :]
    sub[:, :, n_words] = _F_KEY
    sub[:, :, n_words + 1] = np.arange(F)
    normals = standard_normal_rows(master_seed, sub.reshape(n_users * F, n_words + 2), 2 * params.n_r * params.n_t)
    normals = normals.reshape(n_users, F, 2, params.n_r, params.n_t)
    mats = (normals[:, :, 0] + 1j * normals[:, :, 1]) / np.sqrt(2.0)  # innovations, (users, F, n_r, n_t)
    if F == 1:
        return [UserChannel(H=m[0], rho=rho) for m in mats]
    scale = np.sqrt(max(0.0, 1.0 - rho * rho))
    for f in range(1, F):  # the chain overwrites the innovations in subcarrier order
        mats[:, f] = rho * mats[:, f - 1] + scale * mats[:, f]
    return [UserChannel(H=H, subcarriers=m, rho=rho) for H, m in zip(mats.mean(axis=1), mats)]


def draw_user_channel(params, F=1, rho=0.0, seed=None):
    """Draw one user's Rayleigh channel: `draw_channels` for one seed."""
    return draw_channels(params, F, rho, seed.master_seed, [seed.stream])[0]


def effective_channel(H, u):
    """h_hat = H^H u, so that <u, H x> = <h_hat, x> for every x."""
    H = np.asarray(H, dtype=complex)
    u = np.asarray(u, dtype=complex)
    if u.shape != (H.shape[0],):
        raise ValueError(f"filter dim {u.shape} does not match n_r={H.shape[0]}")
    return H.conj().T @ u


def effective_channel_state(h_hat, params):
    """Package a raw effective vector into an EffectiveChannel."""
    h_hat = np.asarray(h_hat, dtype=complex)
    gain = float(np.linalg.norm(h_hat))
    if gain == 0.0:
        e1 = np.zeros(h_hat.shape[0], dtype=complex)
        e1[0] = 1.0
        return EffectiveChannel(h_hat=h_hat, lambda_sq=0.0, h=e1)
    lam_sq = params.P * gain * gain / (params.n_t * params.sigma_sq)
    return EffectiveChannel(h_hat=h_hat, lambda_sq=lam_sq, h=h_hat / gain)


def _fix_phase(u):
    """Rotate a vector so its largest-magnitude entry is real positive."""
    i = int(np.argmax(np.abs(u)))
    if np.abs(u[i]) > 0:
        u = u * (np.conj(u[i]) / np.abs(u[i]))
    return u


def mrc_filter(H):
    """Unit-norm filter maximizing ||H^H u||: dominant left singular vector.

    A zero matrix gets e_1; its effective channel is zero, with
    lambda_sq = 0 and rate 0.
    """
    H = np.asarray(H, dtype=complex)
    if H.shape[0] == 1:
        return np.ones(1, dtype=complex)
    if not np.any(H):
        u = np.zeros(H.shape[0], dtype=complex)
        u[0] = 1.0
        return u
    U, _, _ = np.linalg.svd(H)
    return _fix_phase(U[:, 0])


def mrc_effective_channel(uc, params):
    """MRC-filtered effective channel of the (averaged) user channel."""
    u = mrc_filter(uc.H)
    return effective_channel_state(effective_channel(uc.H, u), params)


def per_subcarrier_effective_channels(uc, params):
    """Effective channels of every subcarrier under the MRC filter of the
    averaged channel, the one filter feedback, scheduling and
    `scheduler.realize_rates` all assume."""
    u = mrc_filter(uc.H)
    return [effective_channel_state(effective_channel(Hf, u), params) for Hf in uc.per_subcarrier()]
