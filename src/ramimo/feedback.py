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
rescaled by sqrt(n_t / P), which makes exact feedback reproduce
the true rates exactly.
"""

from dataclasses import dataclass
from itertools import combinations

import numpy as np

from .channel import effective_channel_state, user_channels_block
from .numerics import LOG_GAIN_BRACKET, abs_sq, minimax_log_gain, ordered_sum
from .rates import rate

# (column, configuration) entries of one gain-search pass over the columns
# that survive the pre-pass, a few percent of them: larger searches share
# the fixed numpy cost of a pass over more problems, and the limit caps a
# pass's working arrays (about 0.5 MB each)
_BATCH_ELEMENTS = 1 << 16
# slack of a column's lower bound over its problem's upper bound before the
# column is dropped, far above rounding; read at call time, so an infinite
# margin disables pruning
PRUNE_MARGIN = 1e-9

_CONFIG_CACHE = {}


@dataclass(frozen=True)
class FeedbackMessage:
    cdi_index: int
    cqi: float
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
    injective mappings reduces to this table.  Returns the interferer-index
    table, one row per configuration holding its own beam and then its
    interfering beams in beam order, padded with n_beams, the index of a
    zero-power column, to at least one interferer column; and |S| of every
    configuration.
    """
    key = (n_beams, tuple(sizes))
    if key not in _CONFIG_CACHE:
        rows, ks = [], []
        width = max([2, *key[1]])
        for k in key[1]:
            if k < 1 or k > n_beams:
                raise ValueError(f"cannot schedule {k} users on {n_beams} beams")
            for j in range(n_beams):
                for T in combinations([i for i in range(n_beams) if i != j], k - 1):
                    rows.append((j, *T) + (n_beams,) * (width - k))
                    ks.append(k)
        _CONFIG_CACHE[key] = (np.array(rows, dtype=int).reshape(-1, width), np.array(ks, dtype=float))
    return _CONFIG_CACHE[key]


def _stacked_configs(n_beams, params):
    """The configuration table of stacked problems `params`, whose n_s must
    agree, the noise terms |S| / P of every (problem,
    configuration) and every problem's `raw_scale_sq`, in the scalar
    operation order."""
    n_s = {p.n_s for p in params}
    if len(n_s) > 1:
        raise ValueError("stacked problems must share one n_s, so one set of scheduling sizes")
    table, ks = scheduling_configs(n_beams, range(1, max(n_s, default=0) + 1))
    n_t, power = np.array([(p.n_t, p.P) for p in params]).reshape(-1, 2).T
    return table, ks / power[:, None], n_t / power


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


def _config_rates(powers, table, noise):
    """Rates (nats) of every configuration of `table` for raw power vectors
    `powers` (beams on the last axis), from `rates.rate` with each
    configuration's interferers in table order, so a stacked row equals
    the single-vector result bit for bit."""
    powers = np.concatenate([powers, np.zeros((*powers.shape[:-1], 1))], axis=-1)
    return rate(powers[..., table[:, 0]], (powers[..., beams] for beams in table.T[1:]), noise)


def raw_scale_sq(params):
    """Conversion from CQI^2 (lambda units) to raw effective-channel power."""
    return params.n_t / params.P


def feedback_vectors(cdi, cqi, V, scale_sq):
    """Raw-scale vectors the scheduler treats like effective channels, one
    row per (CDI, CQI, `raw_scale_sq`) entry of the three arrays, which
    broadcast."""
    return (np.asarray(cqi) * np.sqrt(scale_sq))[..., None] * V.vectors[cdi]


def feedback_vector(msg, V, params):
    """Raw-scale vector the scheduler treats like an effective channel: the
    one-message case of `feedback_vectors`."""
    return feedback_vectors([msg.cdi_index], [msg.cqi], V, [raw_scale_sq(params)])[0]


def _cqi(lambda_sq, h, nu):
    """theta = sqrt(lambda^2 |<h, nu>|^2) of every row of the stacks h, nu."""
    return np.sqrt(lambda_sq * abs_sq(np.vecdot(h, nu)))


def chordal_feedback_block(h, lambda_sq, V):
    """Classical feedback for every row of a stack of unit directions h
    (rows, n_t) with their lambda^2: the index of the codeword closest to
    h in chordal distance (the largest |<nu, h>|^2, ties to the lowest
    index) and the CQI over it, as two arrays.  Every row equals the
    one-row computation bit for bit."""
    idx = np.argmax(beam_powers(h, V), axis=-1)
    return idx, _cqi(np.asarray(lambda_sq), h, V.vectors[idx])


def chordal_cdi(eff, V):
    """Classical feedback: direction closest to h in chordal distance; the
    one-row case of `chordal_feedback_block`."""
    idx, theta = chordal_feedback_block(eff.h[None], [eff.lambda_sq], V)
    return FeedbackMessage(int(idx[0]), float(theta[0]), len(V))


def ra_distance(eff, theta, nu, C, params, sizes=None):
    """Worst-case |true rate - approximated rate| over scheduling configurations.

    theta is on the CQI scale; the approximated rate plugs
    theta * sqrt(n_t / P) * nu into the rate formula.  The max runs
    over user-set sizes in `sizes` (default 1..n_s), every own beam, and
    every set of distinct interfering beams.
    """
    table, ks = scheduling_configs(len(C), range(1, params.n_s + 1) if sizes is None else sizes)
    noise = ks / params.P
    r_true = _config_rates(beam_powers(eff.h_hat, C), table, noise)
    q = (theta * theta * raw_scale_sq(params)) * beam_powers(nu, C)
    r_hat = _config_rates(q, table, noise)
    gaps = np.abs(r_true - r_hat)
    i = int(np.argmax(gaps))
    own, *intf = table[i].tolist()
    return GapProfile(
        value=float(gaps[i]),
        n_scheduled=int(ks[i]),
        own_beam=own,
        interferers=tuple(b for b in intf if b < len(C)),
    )


def ra_feedback_batch(h_hat, params, C, V, phi_table=None):
    """Full rate-approximation feedback, the argmin over (theta, nu) of the
    worst-case rate mismatch, for a stack of rows (users or SNR points):
    h_hat (rows, F, n_t) holds each row's true-rate channels, its F
    subcarriers (whose rates are averaged: frequency-averaged feedback) or
    its one flat channel, and `params` each row's SystemParams, all with
    the same n_s.  Returns the CDI, CQI and gap arrays.

    For each codeword the gain is solved in x = log theta^2 over [-40, 40]
    by `numerics.minimax_log_gain`: every predicted rate is nondecreasing
    in x, so the worst-case mismatch is smallest where the largest
    overshoot equals the largest undershoot, a crossing that one pair of
    configurations sets and whose closed-form root the solver takes.  The
    reported gap is the exact minimum for that codeword, certified by a
    lower bound within 1e-13 nats, or, for a column no root round
    certifies, within the fallback bisection's 7.3e-11 of it.  The best
    codeword wins, ties to the lowest index.

    A pre-pass drops every (row, codeword) column whose single-user
    minimax exceeds an upper bound on its row's minimum, by one gain
    interval test per column (`_pre_pass`); the certified gain solver then
    runs over the surviving columns of all rows, in chunks of at most
    _BATCH_ELEMENTS (column, configuration) entries.  Every column goes
    through the same elementwise arithmetic as alone and leaves the
    solver's passes once certified, so every row matches its one-row call
    bit for bit; only the per-pass numpy overhead is shared.
    """
    if len(V) == 0:
        raise ValueError("empty feedback codebook")
    table, noise, scale2 = _stacked_configs(len(C), params)
    phi = cross_gram(V, C) if phi_table is None else phi_table
    # true rates of every (row, subcarrier) channel in one pass; a
    # frequency-averaged row takes the mean over its subcarriers
    rates = _config_rates(beam_powers(h_hat, C), table, noise[:, None])
    r_true = rates.mean(axis=1) if rates.shape[1] > 1 else rates[:, 0]
    return _ra_messages(r_true, noise, scale2, phi, table)


def _interference(powers, table):
    """Interference power of every configuration of `table` for every
    column of `powers` (beam rows plus a final zero row).  The interfering
    beams are added one by one in table order, as `rates.rate` adds them,
    so a column's bits do not depend on how many columns `powers` holds."""
    total = powers[table[:, 1]]
    for beams in table.T[2:]:
        total += powers[beams]
    return total


def _excess(r_true, noise, table):
    """The gain solver's excess(x, problem, scale2, phi_cols): the signed
    mismatches (configurations x columns) of the predicted over the true
    rates of every column, given its log-gain, problem index, CQI^2-to-raw
    scale and codeword powers (beam rows plus a zero row); and its
    coefficients(c, problem, scale2, phi_cols): A, U and r of
    configuration c[k] of every column k, the mismatch being
    log1p(A g / (1 + U g)) - r in g = e^x with A and U the own and
    interfering codeword powers over the noise term.  For problems with
    true rates and noise terms (problems x configurations)."""
    # true rates and noise terms stay per problem and are read through
    # each column's problem index, so no (configurations x columns) array
    # outlives a pass
    r_true, noise = np.ascontiguousarray(r_true.T), np.ascontiguousarray(noise.T)

    # the rate formula in place, adding in `rates.rate`'s order: routed
    # through the kernel, its temporaries made ra-full runs slower
    def excess(x, problem, scale2, phi_cols):
        powers = (scale2 * np.exp(x)) * phi_cols
        denom = _interference(powers, table)
        denom += noise[:, problem]
        d = powers[table[:, 0]]
        d /= denom
        del denom
        np.log1p(d, out=d)
        d -= r_true[:, problem]
        return d

    def coefficients(c, problem, scale2, phi_cols):
        beams, k = table[c].T, np.arange(len(c))  # own beam, then interferers
        w = scale2 / noise[c, problem]
        intf = phi_cols[beams[1], k]
        for b in beams[2:]:
            intf += phi_cols[b, k]
        return w * phi_cols[beams[0], k], w * intf, r_true[c, problem]

    return excess, coefficients


def _pre_pass(excess, r_true, noise, scale2, phi_cols, per_pass):
    """Mask (problems, codewords) of the columns that cannot win their
    problem, and each problem's upper bound on its minimum, for the
    search's `excess` and codeword powers `phi_cols` (beam rows plus a
    zero row).

    A column's worst mismatch is at least that of the single-user
    configurations, the table's first |C| rows (own beam j, noise only):
    e_j = log1p(kappa phi_j g) - r_j, kappa = scale2 over their noise
    term, rising in g = e^x.  All |e_j| are at most T = upper +
    PRUNE_MARGIN at one g of the bracket [e^-40, e^40] just when
    max_j lo_j / phi_j <= min_j hi_j / phi_j, both held in the bracket,
    with lo_j = expm1(r_j - T) / kappa and hi_j = expm1(r_j + T) / kappa;
    by Helly's theorem in one dimension this is the single-user minimax
    test, and a column that fails it is dropped.  A phi_j of 0 excludes
    every g where lo_j > 0 and none where lo_j <= 0 (a 0 * inf is a NaN
    that fmax and fmin skip); a NaN or infinite bound keeps every column
    of its problem.

    The upper bound is the largest |excess|, for at most `per_pass`
    problems at a time, of the column whose single-user zero crossings
    t_j / phi_j, t = expm1(r) / kappa, spread least (largest over
    smallest), at the root of its extreme pair (a, b),
    (1 + a_a g)(1 + a_b g) = e^(r_a + r_b) with a = kappa phi, written
    without cancellation and held in the bracket.
    """
    n, n_b = len(r_true), len(phi_cols) - 1
    kappa, r_single = (scale2 / noise[:, 0])[:, None], r_true[:, :n_b]
    g_min, g_max = np.exp(-LOG_GAIN_BRACKET), np.exp(LOG_GAIN_BRACKET)
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        inv_phi = 1.0 / phi_cols[:-1]

        def envelope(rows, pick):  # pick over beams j of rows[:, j] / phi_j
            out = rows[:, :1] * inv_phi[0]
            for j in range(1, n_b):
                pick(out, rows[:, j, None] * inv_phi[j], out=out)
            return out

        t = np.expm1(r_single) / kappa
        least = np.argmin(np.nan_to_num(envelope(t, np.fmax) / envelope(t, np.fmin), nan=np.inf), axis=1)
        cross, rows = t * inv_phi[:, least].T, np.arange(n)  # the chosen columns' crossings
        a = np.argmax(np.where(np.isnan(cross), -np.inf, cross), axis=1)
        b = np.argmin(np.where(np.isnan(cross), np.inf, cross), axis=1)
        alpha_a, alpha_b = (kappa[:, 0] * phi_cols[j, least] for j in (a, b))
        growth, s = np.expm1(r_single[rows, a] + r_single[rows, b]), alpha_a + alpha_b
        g = 2.0 * growth / (s + np.sqrt(s * s + (4.0 * growth) * alpha_a * alpha_b))
    x = np.log(np.clip(np.nan_to_num(g, nan=1.0), g_min, g_max))
    upper = np.empty(n)
    for lo in range(0, n, per_pass):
        p = np.arange(lo, min(n, lo + per_pass))
        upper[p] = np.abs(excess(x[p], p, scale2[p], phi_cols[:, least[p]])).max(axis=0)
    reach = (upper + PRUNE_MARGIN)[:, None]
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        start = envelope(np.expm1(r_single - reach) / kappa, np.fmax)
        stop = envelope(np.expm1(r_single + reach) / kappa, np.fmin)
    return np.fmax(start, g_min) > np.fmin(stop, g_max), upper


def _ra_messages(r_true, noise, scale2, phi, table):
    """Minimax (codeword, gain, gap) of each problem as three arrays,
    given its true rates and noise terms (problems x configurations) and
    CQI^2-to-raw scale, from `minimax_log_gain` solves over the
    (problem, codeword) columns that survive a pre-pass.

    `_pre_pass` drops a column whose single-user minimax exceeds its
    problem's upper bound by more than PRUNE_MARGIN: its value is at least
    that minimax, and the winner's at most the upper bound plus the
    solver's certificate (1e-13), or the fallback's 7.3e-11, far below the
    margin.  The survivors are searched in chunks of at most
    _BATCH_ELEMENTS (column, configuration) entries; the best codeword
    wins, ties to the lowest index.
    """
    n, n_v = len(r_true), len(phi)
    excess, coefficients = _excess(r_true, noise, table)
    phi_cols = np.vstack([phi.T, np.zeros(n_v)])
    per_pass = max(1, _BATCH_ELEMENTS // len(table))  # columns of one pass within the cap
    dropped, _ = _pre_pass(excess, r_true, noise, scale2, phi_cols, per_pass)
    problem, cdi = np.nonzero(~dropped)
    x, gap = np.full((n, n_v), np.nan), np.full((n, n_v), np.inf)
    for lo in range(0, len(problem), per_pass):
        p, v = problem[lo : lo + per_pass], cdi[lo : lo + per_pass]
        x[p, v], gap[p, v], _ = minimax_log_gain(excess, coefficients, (p, scale2[p], phi_cols[:, v]))
    idx = np.argmin(gap, axis=1)
    rows = np.arange(n)
    return idx, np.exp(0.5 * x[rows, idx]), gap[rows, idx]


def efficient_feedback_block(h, lambda_sq, C, V, phi_table=None):
    """Low-complexity rate-approximation surrogate for every row of a stack
    of unit directions h (rows, n_t) with their lambda^2: the CDI, CQI and
    gap arrays.

    Each row picks argmin over nu of max_w ||<h, w>|^2 - |<nu, w>|^2|
    (ties to the lowest index) using the stored |<nu, w>|^2 table; only
    the |C| products |<h, w>|^2 are computed online, one matrix-vector
    product per row, so every row equals the one-row computation bit for
    bit.
    """
    if len(V) == 0 or len(C) == 0:
        raise ValueError("empty codebook")
    phi = cross_gram(V, C) if phi_table is None else phi_table
    d = np.max(np.abs(beam_powers(h, C)[:, None, :] - phi), axis=2)
    idx = np.argmin(d, axis=1)
    return idx, _cqi(np.asarray(lambda_sq), h, V.vectors[idx]), d[np.arange(len(d)), idx]


def efficient_cdi(eff, C, V, phi_table=None):
    """Low-complexity rate-approximation surrogate: the one-row case of
    `efficient_feedback_block`.  The instrumented count follows the
    protocol budget |C| * |V| (|C| fresh products plus |C| * (|V| - 1)
    stored-table differences).
    """
    idx, theta, gap = efficient_feedback_block(eff.h[None], [eff.lambda_sq], C, V, phi_table=phi_table)
    return FeedbackMessage(int(idx[0]), float(theta[0]), len(C) * len(V), gap=float(gap[0]))


def _require_subset(C, V, tol=1e-12):
    diffs = np.abs(V.vectors[None, :, :] - C.vectors[:, None, :]).max(axis=2)
    if not np.all(diffs.min(axis=1) <= tol):
        raise ValueError("transmit codebook is not contained in the feedback codebook")


def lemma1_feedback_block(h, lambda_sq, C, V):
    """Constructive feedback strategy behind the worst-case gap bound, for
    every row of a stack of unit directions h (rows, n_t) with their
    lambda^2: the CDI and CQI arrays.

    (a) find the transmit beam w* best aligned with h; (b) among codewords
    at least as aligned with w* as h is (nonempty because C is contained in
    V), pick the chordal-closest to h; (c) set the gain by the closed form
    theta_tilde = lambda_tilde * eta / theta_w*.  Every alignment is one
    matrix-vector product per row, so every row equals the one-row
    computation bit for bit.
    """
    _require_subset(C, V)
    psi = beam_powers(h, C)
    rows = np.arange(len(psi))
    w_star = np.argmax(psi, axis=1)
    eta = psi[rows, w_star]
    theta_w = beam_powers(C.vectors[w_star], V)
    feasible = theta_w >= eta[:, None] - 1e-12
    idx = np.argmax(np.where(feasible, beam_powers(h, V), -1.0), axis=1)
    # theta_tilde = theta^2 / (1 + theta^2), capped below 1
    lam = np.asarray(lambda_sq)
    lam_t = lam / (1.0 + lam)
    th = theta_w[rows, idx]
    tt = np.where(th > 0, np.minimum(lam_t * eta / np.where(th > 0, th, 1.0), 1.0 - 1e-12), 0.0)
    return idx, np.sqrt(tt / (1.0 - tt))


def lemma1_feedback(eff, C, V):
    """Constructive feedback strategy behind the worst-case gap bound: the
    one-row case of `lemma1_feedback_block`."""
    idx, theta = lemma1_feedback_block(eff.h[None], [eff.lambda_sq], C, V)
    return FeedbackMessage(int(idx[0]), float(theta[0]), scalar_product_count=len(C) + 2 * len(V))


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


def gap_samples_delta_ra(h_hat, cdi, cqi, scheduled, params, C, V):
    """Worst-case rate-gap samples of many draws: for each sample (row) of
    the (samples, users) arrays, 2 * the sum over the users `scheduled`
    marks of their `ra_distance` on the reported (CDI, CQI); h_hat
    (samples, users, n_t) holds the true channels and `params` each
    sample's SystemParams, all with the same n_s.

    Every scheduled (sample, user) row goes through one
    `beam_powers`/`_config_rates` pass, each row with its own noise terms
    and by the same elementwise arithmetic as `ra_distance` alone; a
    sample's mismatches are added in user order, unscheduled users adding
    0.0, so each sample equals the one-draw sum bit for bit.
    """
    table, noise, scale2 = _stacked_configs(len(C), params)
    sample, user = np.nonzero(scheduled)
    values = np.zeros(np.shape(scheduled))
    if len(sample):
        # true channels, then reported codewords scaled by their CQI, in one pass
        q = np.asarray(cqi)[sample, user]
        powers = beam_powers(np.concatenate([h_hat[sample, user], V.vectors[np.asarray(cdi)[sample, user]]]), C)
        powers[len(sample) :] *= (q * q * scale2[sample])[:, None]
        rates = _config_rates(powers, table, np.concatenate([noise[sample], noise[sample]]))
        values[sample, user] = np.abs(rates[: len(sample)] - rates[len(sample) :]).max(axis=1)
    return 2.0 * ordered_sum(values.T, np.zeros(len(values)))


def gap_sample_delta_ra(effs, msgs, C, V, params, users):
    """One draw's contribution to the worst-case rate-gap estimate:
    2 * sum over the scheduled-union users of their rate mismatch; the
    one-draw case of `gap_samples_delta_ra`."""
    ids = sorted(users)
    h_hat = np.array([effs[m].h_hat for m in ids], dtype=complex).reshape(1, len(ids), C.dim)
    cdi, cqi = [[msgs[m].cdi_index for m in ids]], [[msgs[m].cqi for m in ids]]
    return float(gap_samples_delta_ra(h_hat, cdi, cqi, np.ones((1, len(ids)), bool), [params], C, V)[0])


STRATEGIES = ("perfect", "chordal", "ra-full", "ra-efficient", "lemma1")


def compute_feedback(strategy, uc, C, V, params, phi_table=None):
    """Dispatch one user's feedback message for the named strategy."""
    if strategy == "perfect":
        raise ValueError("perfect CSIT bypasses feedback; schedule on the effective channel")
    block = user_channels_block([uc])
    if strategy == "ra-full":
        # true rates over the subcarriers; with F = 1 the one row is the averaged channel
        cdi, cqi, gap = ra_feedback_batch(block.sub_h_hat, [params], C, V, phi_table=phi_table)
        return FeedbackMessage(int(cdi[0]), float(cqi[0]), len(C) * len(V) + len(C), gap=float(gap[0]))
    eff = effective_channel_state(block.h_hat[0], params)
    if strategy == "chordal":
        return chordal_cdi(eff, V)
    if strategy == "ra-efficient":
        return efficient_cdi(eff, C, V, phi_table=phi_table)
    if strategy == "lemma1":
        return lemma1_feedback(eff, C, V)
    raise ValueError(f"unknown strategy {strategy!r}; expected one of {STRATEGIES}")
