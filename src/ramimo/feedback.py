"""CDI/CQI selection strategies for limited feedback.

A user reports a direction index into the feedback codebook V (CDI) and a
nonnegative scalar gain (CQI).  Strategies differ in the metric they
minimize:

* ``chordal``       -- classical direction quantization, max |<h, nu>|^2.
* ``ra-full``       -- min-max rate mismatch over every scheduling
                       configuration the base station could pick (the rate
                       approximation rule), jointly over nu and the gain.
* ``ra-efficient``  -- low-complexity surrogate max_w ||<h,w>|^2 - |<nu,w>|^2|
                       using a precomputable |<nu, w>|^2 table.
* ``lemma1``        -- constructive strategy: quantize toward h subject to
                       not under-shooting the best transmit beam, with a
                       closed-form gain.

CQI convention: the reported gain theta lives on the normalized
receive-SNR scale (theta^2 = lambda^2 |<h, nu>|^2 when nu == h gives
theta = lambda).  When a feedback vector enters the raw rate formula it is
rescaled by sqrt(n_t sigma^2 / P), which makes exact feedback reproduce
the true rates exactly.
"""

from dataclasses import dataclass
from itertools import combinations

import numpy as np

from .channel import mrc_effective_channel, per_subcarrier_effective_channels
from .numerics import minimax_log_gain

# (column, configuration) entries of one gain search before codeword
# pruning, which leaves a few percent of the columns after ten halvings:
# larger searches share the fixed numpy cost of a pass over more problems,
# and the limit caps the first passes' working arrays (about 0.5 MB each)
_BATCH_ELEMENTS = 1 << 16

_CONFIG_CACHE = {}


@dataclass(frozen=True)
class FeedbackMessage:
    cdi_index: int
    cqi: float
    strategy_tag: str
    scalar_product_count: int
    gap: float | None = None


@dataclass(frozen=True)
class GapProfile:
    """Worst-case rate mismatch and the configuration attaining it."""

    value: float
    n_scheduled: int
    own_beam: int
    interferers: tuple


def scheduling_configs(n_beams, sizes):
    """Enumerate (|S|, own beam, interferer beam set) configurations.

    The rate of a user depends on the scheduling decision only through the
    number of active users, its own beam, and the set of distinct
    interfering beams, so the worst case over explicit user sets and
    injective mappings reduces to this table.
    """
    key = (n_beams, tuple(sizes))
    if key in _CONFIG_CACHE:
        return _CONFIG_CACHE[key]
    own, masks, ks, intf = [], [], [], []
    for k in sizes:
        if k < 1 or k > n_beams:
            raise ValueError(f"cannot schedule {k} users on {n_beams} beams")
        for j in range(n_beams):
            others = [i for i in range(n_beams) if i != j]
            for T in combinations(others, k - 1):
                own.append(j)
                ks.append(k)
                intf.append(T)
                row = np.zeros(n_beams)
                row[list(T)] = 1.0
                masks.append(row)
    table = (
        np.array(own, dtype=int),
        np.array(masks),
        np.array(ks, dtype=float),
        tuple(intf),
    )
    _CONFIG_CACHE[key] = table
    return table


def beam_powers(v, C):
    """|<v, w>|^2 against every codeword of C, for one vector v or a stack
    of them (codewords on the last axis).

    Each vector is its own matrix-vector product, so a stacked row equals
    the single-vector result bit for bit.
    """
    return np.abs(C.vectors @ np.conj(np.asarray(v, dtype=complex))[..., None])[..., 0] ** 2


def cross_gram(V, C):
    """|<nu, w>|^2 table, shape (|V|, |C|).  Computed once and reused."""
    return np.abs(V.vectors.conj() @ C.vectors.T) ** 2


def _config_noise(ks, params):
    """Normalized noise term of every configuration."""
    return params.sigma_sq * ks / params.P


def _config_rates(powers, own, mask, noise):
    """Rates (nats) of every configuration for raw power vectors `powers`
    (beams on the last axis).  Interference sums run row by row, so a
    stacked row equals the single-vector result bit for bit."""
    intf = (powers[..., None, :] @ mask.T)[..., 0, :]
    return np.log1p(powers[..., own] / (noise + intf))


def raw_scale_sq(params):
    """Conversion from CQI^2 (lambda units) to raw effective-channel power."""
    return params.n_t * params.sigma_sq / params.P


def feedback_vector(msg, V, params):
    """Raw-scale vector the scheduler treats like an effective channel."""
    return msg.cqi * np.sqrt(raw_scale_sq(params)) * V[msg.cdi_index]


def cqi_effective(lambda_sq, h, nu):
    """Effective channel gain over the quantized direction: theta^2 = lambda^2 |<h, nu>|^2."""
    return float(np.sqrt(lambda_sq * np.abs(np.vdot(h, nu)) ** 2))


def chordal_cdi(eff, V):
    """Classical feedback: direction closest to h in chordal distance."""
    if len(V) == 0:
        raise ValueError("empty feedback codebook")
    align = np.abs(V.vectors @ np.conj(eff.h)) ** 2
    idx = int(np.argmax(align))
    theta = cqi_effective(eff.lambda_sq, eff.h, V[idx])
    return FeedbackMessage(idx, theta, "chordal", scalar_product_count=len(V))


def _sizes(params, sizes):
    return tuple(range(1, params.n_s + 1)) if sizes is None else tuple(sizes)


def ra_distance(eff, theta, nu, C, params, sizes=None):
    """Worst-case |true rate - approximated rate| over scheduling configurations.

    theta is on the CQI scale; the approximated rate plugs
    theta * sqrt(n_t sigma^2 / P) * nu into the rate formula.  The max runs
    over user-set sizes in `sizes` (default 1..n_s), every own beam, and
    every set of distinct interfering beams.
    """
    own, mask, ks, intf = scheduling_configs(len(C), _sizes(params, sizes))
    noise = _config_noise(ks, params)
    r_true = _config_rates(beam_powers(eff.h_hat, C), own, mask, noise)
    q = (theta * theta * raw_scale_sq(params)) * beam_powers(nu, C)
    r_hat = _config_rates(q, own, mask, noise)
    gaps = np.abs(r_true - r_hat)
    i = int(np.argmax(gaps))
    return GapProfile(
        value=float(gaps[i]),
        n_scheduled=int(ks[i]),
        own_beam=int(own[i]),
        interferers=intf[i],
    )


def ra_feedback(eff, C, V, params, subcarrier_effs=None, phi_table=None, sizes=None):
    """Full rate-approximation feedback: argmin over (theta, nu) of the
    worst-case rate mismatch.

    For each codeword the gain is searched in x = log theta^2 by
    `numerics.minimax_log_gain`: every predicted rate is nondecreasing in
    x, so the worst-case mismatch is smallest where the largest overshoot
    equals the largest undershoot, and 40 bisection steps over x in
    [-40, 40] reach that point.  Each rate moves by less than |dx|, so the
    reported gap is within about 7e-11 nats of the exact minimum for that
    codeword.  The best codeword wins, ties to the lowest index.

    With `subcarrier_effs` the true-rate side is the per-subcarrier average
    (frequency-averaged feedback); the reported direction/gain still refer
    to the averaged channel in `eff`.
    """
    return ra_feedback_batch([(eff, params, subcarrier_effs)], C, V, phi_table=phi_table, sizes=sizes)[0]


def ra_batch_group(C, V, params, sizes=None):
    """Problems per gain search of `ra_feedback_batch`: larger inputs are
    split into groups of this many, so that the first passes' working
    arrays hold about _BATCH_ELEMENTS (column, configuration) entries.  The
    harness sizes its draw blocks to fill one group."""
    own = scheduling_configs(len(C), _sizes(params, sizes))[0]
    return max(1, _BATCH_ELEMENTS // (len(V) * len(own)))


def ra_feedback_batch(problems, C, V, phi_table=None, sizes=None):
    """`ra_feedback` for several users (or SNR points) in one gain search.

    `problems` is a sequence of (eff, params, subcarrier_effs) triples,
    subcarrier_effs None for flat channels; all params must give the same
    configuration table.  One log-gain bisection (`minimax_log_gain`, gap
    within about 7e-11 nats of each codeword's minimum) runs over every
    (problem, codeword) column, up to `ra_batch_group` problems at a time,
    and drops each codeword once its bracket shows it cannot beat its
    problem's best.  Every column goes through the same elementwise
    arithmetic as in a single call, whatever else the search holds, so the
    messages match per-problem `ra_feedback` calls bit for bit; only the
    per-pass numpy overhead is shared.
    """
    if len(V) == 0:
        raise ValueError("empty feedback codebook")
    if not problems:
        return []
    tables = {_sizes(params, sizes) for _, params, _ in problems}
    if len(tables) != 1:
        raise ValueError("batched problems must share one set of scheduling sizes")
    own, mask, ks, _ = scheduling_configs(len(C), tables.pop())
    phi = cross_gram(V, C) if phi_table is None else phi_table
    group = ra_batch_group(C, V, problems[0][1], sizes=sizes)
    if len(problems) > group:  # bound the first passes' working arrays
        return [
            msg
            for lo in range(0, len(problems), group)
            for msg in ra_feedback_batch(problems[lo : lo + group], C, V, phi_table=phi, sizes=sizes)
        ]
    noise = np.array([_config_noise(ks, params) for _, params, _ in problems])
    # true rates of every (problem, subcarrier) channel in one pass; a
    # frequency-averaged problem takes the mean over its subcarrier rows
    true_effs = [subcarrier_effs or [eff] for eff, _, subcarrier_effs in problems]
    bounds = np.cumsum([0] + [len(t) for t in true_effs])
    rates = _config_rates(
        beam_powers(np.array([e.h_hat for t in true_effs for e in t]), C),
        own,
        mask,
        np.repeat(noise, np.diff(bounds), axis=0),
    )
    r_true = [rates[a:b].mean(axis=0) if b - a > 1 else rates[a] for a, b in zip(bounds[:-1], bounds[1:])]
    scale2 = np.array([raw_scale_sq(params) for _, params, _ in problems])
    return _ra_messages(np.array(r_true), noise, scale2, phi, own, mask, len(C) * len(V) + len(C))


def _interferer_table(mask):
    """Interfering beams of every configuration (row of `mask`) in beam
    order, padded with len(mask[0]): the index of an all-zero power row."""
    beams = [np.flatnonzero(row) for row in mask]
    table = np.full((len(mask), max([1, *map(len, beams)])), mask.shape[1])
    for row, b in zip(table, beams):
        row[: len(b)] = b
    return table


def _interference(powers, table):
    """Interference power of every configuration for every column of
    `powers` (beam rows plus a final zero row).  The interfering beams are
    added one by one in beam order, so a column's bits do not depend on how
    many columns `powers` holds, as they can with a BLAS matrix product."""
    total = powers[table[:, 0]]
    for beams in table.T[1:]:
        total += powers[beams]
    return total


def _ra_messages(r_true, noise, scale2, phi, own, mask, count):
    """Minimax (codeword, gain) message of each problem, given its true
    rates and noise terms (problems x configurations) and CQI^2-to-raw
    scale, from one `minimax_log_gain` search over every (problem,
    codeword) column, grouped by problem."""
    # one column per (problem, codeword) pair: the max over configurations
    # then runs across contiguous rows instead of along short ones
    n, n_v = len(r_true), len(phi)
    table = _interferer_table(mask)
    # true rates and noise terms stay per problem and are read through
    # each column's problem index, so no (configurations x columns) array
    # outlives a pass
    r_true, noise = np.ascontiguousarray(r_true.T), np.ascontiguousarray(noise.T)
    columns = (
        np.repeat(np.arange(n), n_v),
        np.repeat(scale2, n_v),
        np.tile(np.vstack([phi.T, np.zeros(n_v)]), (1, n)),
    )

    def excess(x, problem, scale2, phi_cols):
        powers = (scale2 * np.exp(x)) * phi_cols
        denom = _interference(powers, table)
        denom += noise[:, problem]
        d = powers[own]
        d /= denom
        del denom
        np.log1p(d, out=d)
        d -= r_true[:, problem]
        return d.max(axis=0), -d.min(axis=0)

    x, gap = minimax_log_gain(excess, columns, n_v)
    x = x.reshape(n, n_v)
    gap = gap.reshape(n, n_v)
    msgs = []
    for p in range(n):
        idx = int(np.argmin(gap[p]))
        msgs.append(FeedbackMessage(idx, float(np.exp(0.5 * x[p, idx])), "ra-full", count, gap=float(gap[p, idx])))
    return msgs


def ra_feedback_for_channels(jobs, C, V, phi_table=None, effs=None):
    """`compute_feedback("ra-full", uc, C, V, params)` for every (uc, params)
    job, solved together by `ra_feedback_batch`.  `effs`, if given, holds
    each job's `mrc_effective_channel(uc, params)`, already built by the
    caller."""
    if effs is None:
        effs = [mrc_effective_channel(uc, params) for uc, params in jobs]
    problems = []
    for (uc, params), eff in zip(jobs, effs):
        sub = per_subcarrier_effective_channels(uc, params) if uc.F > 1 else None
        problems.append((eff, params, sub))
    return ra_feedback_batch(problems, C, V, phi_table=phi_table)


def efficient_cdi(eff, C, V, phi_table=None):
    """Low-complexity rate-approximation surrogate.

    Picks argmin over nu of max_w ||<h, w>|^2 - |<nu, w>|^2| using the
    stored |<nu, w>|^2 table; only the |C| products |<h, w>|^2 are computed
    online.  The instrumented count follows the protocol budget |C| * |V|
    (|C| fresh products plus |C| * (|V| - 1) stored-table differences).
    """
    if len(V) == 0 or len(C) == 0:
        raise ValueError("empty codebook")
    psi = beam_powers(eff.h, C)
    phi = cross_gram(V, C) if phi_table is None else phi_table
    d = np.max(np.abs(psi[None, :] - phi), axis=1)
    idx = int(np.argmin(d))
    theta = cqi_effective(eff.lambda_sq, eff.h, V[idx])
    return FeedbackMessage(idx, theta, "ra-efficient", scalar_product_count=len(C) * len(V), gap=float(d[idx]))


def _require_subset(C, V, tol=1e-12):
    diffs = np.abs(V.vectors[None, :, :] - C.vectors[:, None, :]).max(axis=2)
    if not np.all(diffs.min(axis=1) <= tol):
        raise ValueError("transmit codebook is not contained in the feedback codebook")


def lemma1_feedback(eff, C, V):
    """Constructive feedback strategy behind the worst-case gap bound.

    (a) find the transmit beam w* best aligned with h; (b) among codewords
    at least as aligned with w* as h is (nonempty because C is contained in
    V), pick the chordal-closest to h; (c) set the gain by the closed form
    theta_tilde = lambda_tilde * eta / theta_w*.
    """
    _require_subset(C, V)
    psi = beam_powers(eff.h, C)
    w_star = int(np.argmax(psi))
    eta = float(psi[w_star])
    theta_w = np.abs(V.vectors @ np.conj(C[w_star])) ** 2
    feasible = theta_w >= eta - 1e-12
    align = np.abs(V.vectors @ np.conj(eff.h)) ** 2
    score = np.where(feasible, align, -1.0)
    idx = int(np.argmax(score))
    # theta_tilde = theta^2 / (1 + theta^2), capped below 1
    lam_t = eff.lambda_sq / (1.0 + eff.lambda_sq)
    th = float(theta_w[idx])
    tt = min(lam_t * eta / th, 1.0 - 1e-12) if th > 0 else 0.0
    theta = float(np.sqrt(tt / (1.0 - tt)))
    count = len(C) + 2 * len(V)
    return FeedbackMessage(idx, theta, "lemma1", scalar_product_count=count)


def lemma1_rhs(eff, nu, C):
    """Closed-form upper bound on the constructive strategy's gap.

    max over w != w* of
      log(1 + lam^2 (| psi_w - phi_w | + (phi_w/theta) |theta - eta|)
                 / (1 + lam^2 (1 - max(psi_w, phi_w))))
    with psi/phi the squared alignments of h and nu against the transmit
    beams, w* the best beam for h, eta = psi_{w*}, theta = phi_{w*}.
    """
    if len(C) < 2:
        raise ValueError("need at least two transmit beams")
    lam_sq = eff.lambda_sq
    psi = beam_powers(eff.h, C)
    phi = beam_powers(nu, C)
    w_star = int(np.argmax(psi))
    eta = psi[w_star]
    theta = phi[w_star]
    if theta <= 0:
        return float("inf")
    best = 0.0
    for w in range(len(C)):
        if w == w_star:
            continue
        num = lam_sq * (abs(psi[w] - phi[w]) + (phi[w] / theta) * abs(theta - eta))
        den = 1.0 + lam_sq * (1.0 - max(psi[w], phi[w]))
        best = max(best, float(np.log1p(num / den)))
    return best


def gap_samples_delta_ra(samples, C, V, sizes=None):
    """Worst-case rate-gap samples of many draws: for each (effs, msgs,
    params, users) sample, 2 * the sum over `users` of their `ra_distance`
    on the reported message.

    Every (sample, user) row goes through one `beam_powers`/`_config_rates`
    pass, each row with its own noise terms and by the same elementwise
    arithmetic as `ra_distance` alone; a sample's mismatches are added in
    sorted user order, so each sample equals the one-draw sum bit for bit.
    All params must give the same configuration table.
    """
    tables = {_sizes(params, sizes) for _, _, params, _ in samples}
    if len(tables) > 1:
        raise ValueError("stacked gap samples must share one set of scheduling sizes")
    samples = [(effs, msgs, params, sorted(users)) for effs, msgs, params, users in samples]
    rows = [(effs[m], msgs[m], params) for effs, msgs, params, users in samples for m in users]
    values = []
    if rows:
        own, mask, ks, _ = scheduling_configs(len(C), tables.pop())
        # the `_config_noise` terms of every row
        sigma_sq, power = np.array([(params.sigma_sq, params.P) for _, _, params in rows]).T
        noise = sigma_sq[:, None] * ks / power[:, None]
        # true channels, then reported codewords scaled by their CQI, in one pass
        h_hat = np.array([eff.h_hat for eff, _, _ in rows])
        powers = beam_powers(np.concatenate([h_hat, V.vectors[[msg.cdi_index for _, msg, _ in rows]]]), C)
        powers[len(rows) :] *= np.array([[msg.cqi * msg.cqi * raw_scale_sq(params)] for _, msg, params in rows])
        rates = _config_rates(powers, own, mask, np.concatenate([noise, noise]))
        values = np.abs(rates[: len(rows)] - rates[len(rows) :]).max(axis=1).tolist()
    out, lo = [], 0
    for *_, users in samples:
        total = 0.0
        for value in values[lo : lo + len(users)]:
            total += value
        out.append(2.0 * total)
        lo += len(users)
    return out


def gap_sample_delta_ra(effs, msgs, C, V, params, users, sizes=None):
    """One draw's contribution to the worst-case rate-gap estimate:
    2 * sum over the scheduled-union users of their rate mismatch; the
    one-draw case of `gap_samples_delta_ra`."""
    return gap_samples_delta_ra([(effs, msgs, params, users)], C, V, sizes=sizes)[0]


STRATEGIES = ("perfect", "chordal", "ra-full", "ra-efficient", "lemma1")


def compute_feedback(strategy, uc, C, V, params, phi_table=None):
    """Dispatch one user's feedback message for the named strategy."""
    if strategy == "perfect":
        raise ValueError("perfect CSIT bypasses feedback; schedule on the effective channel")
    if strategy == "ra-full":
        return ra_feedback_for_channels([(uc, params)], C, V, phi_table=phi_table)[0]
    eff = mrc_effective_channel(uc, params)
    if strategy == "chordal":
        return chordal_cdi(eff, V)
    if strategy == "ra-efficient":
        return efficient_cdi(eff, C, V, phi_table=phi_table)
    if strategy == "lemma1":
        return lemma1_feedback(eff, C, V)
    raise ValueError(f"unknown strategy {strategy!r}; expected one of {STRATEGIES}")
