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

from .numerics import row_norms
from .numerics import sample_complex_gaussian_matrix  # noqa: F401  (perfbench/spans.py wraps this name)


@dataclass(frozen=True)
class SystemParams:
    """Static system dimensioning and power budget.

    n_t/n_r: transmit/receive antennas; n_s: maximum users scheduled on one
    resource; P: total transmit power over unit noise variance, the SNR.
    """

    n_t: int
    n_r: int = 1
    n_s: int = 2
    P: float = 1.0

    def __post_init__(self):
        if self.n_t < 1 or self.n_r < 1 or self.n_s < 1:
            raise ValueError("n_t, n_r, n_s must all be >= 1")
        if self.n_s > self.n_t:
            raise ValueError(f"n_s={self.n_s} must not exceed n_t={self.n_t}")
        if not self.P > 0:
            raise ValueError("P must be positive")

    def with_snr_db(self, snr_db):
        """Same dimensioning with P set to the given SNR in dB."""
        return SystemParams(self.n_t, self.n_r, self.n_s, P=10.0 ** (snr_db / 10.0))


@dataclass(frozen=True)
class UserChannel:
    """One user's channel: H is the (subcarrier-averaged) n_r x n_t matrix.

    For frequency-selective runs, `subcarriers` holds the F per-subcarrier
    matrices and H is their arithmetic mean (the quantity averaged feedback
    operates on).
    """

    H: np.ndarray
    subcarriers: np.ndarray | None = None

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

    def per_subcarrier(self):
        """(F, n_r, n_t) view; a single frequency-flat draw yields F=1."""
        if self.subcarriers is None:
            return self.H[None, :, :]
        return self.subcarriers


@dataclass(frozen=True)
class EffectiveChannel:
    """Effective vector channel of one user after receive filtering.

    h_hat = H^H u in raw units; h = h_hat normalized; lambda_sq is the
    per-antenna-normalized receive SNR P ||h_hat||^2 / n_t.
    """

    h_hat: np.ndarray
    lambda_sq: float
    h: np.ndarray


# numpy's PCG64.jumped step, (sqrt(5) - 1) / 2 * 2^128 rounded to odd:
# advancing a stream by d * _JUMP is its jumped(d)
_JUMP = 0x9E3779B97F4A7C15F39CC0605CEDC835


def draw_channel_stack(params, F, rho, family, draws, n_users):
    """Draw the Rayleigh channels of `n_users` users for each index d of
    `draws`, each over F correlated subcarriers, as arrays: the averaged
    channels (rows, n_r, n_t) and the subcarriers (rows, F, n_r, n_t), rows
    = len(draws) * n_users, row k * n_users + m being user m of draws[k].

    Draw d's users come from the generator of the SeedSpec `family` jumped
    d times (numpy's PCG64.jumped(d)), so draw 0 is family.generator()
    itself and no two draws share a stream.  One PCG64 serves the call: it
    is reset to the family's state and advanced d jumps for each draw.
    Each draw makes one standard_normal call, laid out user by user, then
    subcarrier, real/imaginary part, n_r and n_t, so user m's channel
    depends neither on n_users nor on the other draws of the call.

    Subcarriers follow H_{f+1} = rho * H_f + sqrt(1 - rho^2) * W_{f+1} with
    i.i.d. CN(0,1) innovations, so each subcarrier is marginally CN(0,1)
    and neighbors have correlation coefficient rho.  The stack is built
    subcarrier-major, (F, rows, n_r, n_t), so every pass of the chain and
    the average runs over one contiguous slab of all rows; the subcarriers
    are returned as a (rows, F, n_r, n_t) view of it.  With F = 1 the
    average is the one subcarrier.
    """
    if F < 1:
        raise ValueError("F must be >= 1")
    if not 0.0 <= rho <= 1.0:
        raise ValueError("rho must be in [0, 1]")
    if n_users < 1:
        raise ValueError("n_users must be >= 1")
    rows, width = len(draws) * n_users, params.n_r * params.n_t
    normals = np.empty((len(draws), n_users * F * 2 * width))
    rng = family.generator()
    bits = rng.bit_generator
    start = bits.state
    for row, d in zip(normals, draws):
        bits.state = start
        bits.advance(int(d) * _JUMP)
        rng.standard_normal(out=row)
    # numpy divides a complex by sqrt(2) as both parts times 1 / sqrt(2)
    parts = normals.reshape(rows, F, 2, width).transpose(2, 1, 0, 3)  # (real/imaginary, F, rows, width)
    mats = np.empty((F, rows, params.n_r, params.n_t), dtype=complex)
    flat = mats.reshape(F, rows, width)
    np.multiply(parts[0], 1.0 / np.sqrt(2.0), out=flat.real)
    np.multiply(parts[1], 1.0 / np.sqrt(2.0), out=flat.imag)
    sub = mats.transpose(1, 0, 2, 3)
    if F == 1:
        return mats[0], sub
    scale = np.sqrt(max(0.0, 1.0 - rho * rho))
    for f in range(1, F):  # the chain overwrites the innovations in subcarrier order
        mats[f] = rho * mats[f - 1] + scale * mats[f]
    return mats.mean(axis=0), sub


def draw_user_channel(params, F=1, rho=0.0, seed=None):
    """Draw one user's Rayleigh channel from seed.generator(): draw 0 of
    `draw_channel_stack` with one user."""
    H, sub = draw_channel_stack(params, F, rho, seed, [0], 1)
    return UserChannel(H=H[0], subcarriers=None if F == 1 else sub[0])


def effective_channel(H, u, out=None):
    """h_hat = H^H u, so that <u, H x> = <h_hat, x> for every x; stacks of
    matrices (..., n_r, n_t) and filters (..., n_r) broadcast, and every
    row equals the product of its matrix and filter alone.  The rows go to
    `out` (..., n_t) if given."""
    H = np.asarray(H, dtype=complex)
    u = np.asarray(u, dtype=complex)
    if H.ndim < 2 or u.shape[-1:] != H.shape[-2:-1]:
        raise ValueError(f"filter dim {u.shape} does not match n_r={H.shape[-2:-1]}")
    return np.matmul(np.conj(H).swapaxes(-1, -2), u[..., None], out=None if out is None else out[..., None])[..., 0]


def _unit_rows(h_hat):
    """Norm of every row of an effective-channel stack (..., n_t) and the
    row divided by it; a zero row gets e_1."""
    gain = row_norms(h_hat)
    zero = gain == 0
    h = h_hat / np.where(zero, 1.0, gain)[..., None]
    h[zero] = np.eye(h_hat.shape[-1], 1, dtype=complex)[:, 0]
    return gain, h


def effective_channel_state(h_hat, params):
    """Package a raw effective vector into an EffectiveChannel, with
    lambda^2 = P ||h_hat||^2 / n_t (0 for a zero channel)."""
    h_hat = np.asarray(h_hat, dtype=complex)
    gain, h = _unit_rows(h_hat[None])
    return EffectiveChannel(h_hat=h_hat, lambda_sq=float(params.P * gain[0] * gain[0] / params.n_t), h=h[0])


def _fix_phase(u):
    """Rotate every row of u so its largest-magnitude entry is real positive."""
    rows = np.arange(len(u))
    top = u[rows, np.argmax(np.abs(u), axis=1)]
    mag = np.abs(top)
    live = mag > 0
    u[live] *= (np.conj(top[live]) / mag[live])[:, None]
    return u


def _mrc_filters(H):
    """MRC filter (unit u maximizing ||H^H u||) of every matrix of an (N,
    n_r, n_t) stack: one stacked SVD, which numpy runs matrix by matrix.
    n_r = 1 needs no SVD: the filter is 1.  A zero matrix gets e_1."""
    u = np.zeros(H.shape[:2], dtype=complex)
    u[:, 0] = 1.0
    if H.shape[1] > 1:
        live = np.any(H, axis=(1, 2))
        if live.any():
            u[live] = _fix_phase(np.linalg.svd(H[live])[0][:, :, 0])
    return u


@dataclass(frozen=True)
class EffectiveBlock:
    """SNR-free effective channels of a block of users under the MRC
    filter of each user's averaged channel, the one filter feedback,
    scheduling and realized rates all assume.

    h_hat (users, n_t) and its norms `gain` and unit rows `h` (e_1 for a
    zero channel) belong to the averaged channels; sub_h_hat (users, F,
    n_t) to the subcarriers, F = 1 for flat channels.  Each row equals the
    one-user computation bit for bit.
    """

    h_hat: np.ndarray
    gain: np.ndarray
    h: np.ndarray
    sub_h_hat: np.ndarray


def effective_block(H, sub, out=None):
    """The EffectiveBlock of users with averaged channels H (users, n_r,
    n_t) and subcarriers sub (users, F, n_r, n_t), as `draw_channel_stack`
    returns them: every MRC filter from one stacked SVD, the effective
    channels from one stacked product for the averaged channels and one
    per subcarrier, norms and unit rows as array arithmetic.

    The subcarriers' effective channels go to `out` (users, F, n_t), a new
    array by default; `out=sub[:, :, 0]` writes each over the first row of
    its matrix, a subcarrier at a time, so a caller that no longer needs
    `sub` holds no second stack."""
    u = _mrc_filters(H)
    h_hat = effective_channel(H, u)
    sub_h_hat = np.empty((len(sub), sub.shape[1], sub.shape[-1]), dtype=complex) if out is None else out
    for f in range(sub.shape[1]):  # a subcarrier at a time: no conjugate copy of the whole stack
        effective_channel(sub[:, f], u, out=sub_h_hat[:, f])
    return EffectiveBlock(h_hat, *_unit_rows(h_hat), sub_h_hat)


def user_channels_block(channels):
    """The EffectiveBlock of a sequence of UserChannels of one shape."""
    H = np.array([uc.H for uc in channels], dtype=complex)
    return effective_block(H, np.array([uc.per_subcarrier() for uc in channels], dtype=complex))


def mrc_effective_channel(uc, params):
    """MRC-filtered effective channel of the (averaged) user channel: the
    one-user case of `effective_block`."""
    return effective_channel_state(user_channels_block([uc]).h_hat[0], params)
