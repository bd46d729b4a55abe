"""Base-station side: user selection, beam assignment, and the zeroforcing baseline.

Scheduling maximizes the sum rate computed from whatever per-user vectors
the base station holds (true effective channels under perfect CSIT, scaled
quantization vectors under partial CSIT).  Brute force solves the
combinatorial problem exactly; the greedy variant inserts the best (user,
beam) pair until no insertion improves the rate; the zeroforcing baseline
selects users greedily too, with beams from the pseudo-inverse of the
chosen directions.  Each takes a stack of problems as arrays and returns
padded (users, beams, predicted sum) arrays, which `realize_rates_block`
realizes on the true channels in one stacked pass.  The dict and object
forms (`schedule_bruteforce`, `schedule_greedy`, `zf_schedule`,
`realize_rates`) are their one-problem cases.
"""

from dataclasses import dataclass
from itertools import combinations, permutations

import numpy as np

from .channel import user_channels_block
from .feedback import beam_powers
from .numerics import abs_sq, ordered_sum, row_norms
from .rates import BeamAssignment, RateReport, rate, rates_with_beams

BRUTE_MAX_USERS = 12
BRUTE_MAX_BEAMS = 32


@dataclass(frozen=True)
class ScheduleDecision:
    assignment: BeamAssignment
    predicted_sum_rate: float


@dataclass(frozen=True)
class PrecodedDecision:
    """Zeroforcing decision: per-user beams that are not codebook entries."""

    users: tuple
    beams: tuple  # unit-norm vectors, aligned with users


_BRUTE_TABLES = {}
# (problem, subset, beam tuple) candidates scored per numpy pass, and the
# (problem, user, beam tuple) entries of one rate table: at 2^14 a pass's
# arrays stay in cache; a call on 50 problems of the criterion-9 config
# took 0.29 ms against 0.33 at 2^13 and 0.45 at 2^15
_BRUTE_BLOCK = 1 << 14


def _brute_tables(n_users, n_beams, k):
    """All k-user subsets (sorted index tuples) and injective k-beam tuples."""
    key = (n_users, n_beams, k)
    if key not in _BRUTE_TABLES:
        subsets = np.array(list(combinations(range(n_users), k)), dtype=int).reshape(-1, k)
        beam_tuples = np.array(list(permutations(range(n_beams), k)), dtype=int).reshape(-1, k)
        _BRUTE_TABLES[key] = (subsets, beam_tuples)
    return _BRUTE_TABLES[key]


def _brute_scores(gains, noise):
    """Predicted sum rate of scheduled sets, as both schedulers score them:
    gains[i][j] holds, for every set, the power of its i-th user (users in
    increasing order) on the beam of its j-th user, and noise the sets'
    noise terms.  Each user's rate is `rates.rate` with its interferers in
    position order, and the rates are added position by position, so no
    set's bits depend on what else the pass holds."""
    return ordered_sum(rate(row[i], row[:i] + row[i + 1 :], noise) for i, row in enumerate(gains))


def schedule_bruteforce_block(vectors, C, n_s, P):
    """Exact maximizers of the sum rate over user subsets of at most n_s
    users and injective beam maps for a stack of problems: vectors
    (problems, users, n_t) the vectors the base station holds, P each
    problem's power.

    Returns (users, beams, rate): each winner's users in increasing order
    and their codeword indices, both (problems, n_s) padded with -1, and
    its predicted sum rate.  Each problem's winner is its largest
    sum rate, ties to the lexicographically smallest (user tuple, beam
    tuple); a best rate of 0 schedules nobody.  Guarded against
    combinatorial blowup; use the greedy scheduler for larger instances.

    A scheduled user's rate depends only on its own power row, the beam
    tuple, its position i in it and its problem's noise term k / P.  So
    for each set size k the rate table R_i[p, u, t] of every (problem,
    user, beam tuple, position) is built once, by the elementwise
    arithmetic of `_brute_scores` (interferers in position order), and a
    (subset, beam tuple) candidate scores the position-order sum of
    R_i[p, subset_i, t]: the same bits as scoring that candidate alone.
    The tables are built for runs of at most `_BRUTE_BLOCK` / users beam
    tuples and groups of problems, and their candidates scored in numpy
    passes of about `_BRUTE_BLOCK`: whole problems at a time or, where one
    problem holds more, runs of its subsets.  Subsets and beam tuples run
    in lexicographic order, so a problem's first hit of its maximum over
    the flattened (subset, beam tuple) axis, the first row-major hit of a
    pass or, across passes, the smaller flat index, is that k's smallest
    key; the keys of different k are compared explicitly.
    """
    n_users, power = _check_problems(vectors, C, n_s, P)
    if n_users > BRUTE_MAX_USERS or len(C) > BRUTE_MAX_BEAMS:
        raise ValueError(f"brute-force scheduling refused for |U|={n_users}, |C|={len(C)}; use greedy")
    pw = beam_powers(vectors, C)  # (problems, users, beams)

    def key(k, s, t):
        """(users, beam tuple) of subset s and beam tuple t of size k."""
        subsets, beam_tuples = _brute_tables(n_users, len(C), k)
        return tuple(subsets[s].tolist()), tuple(beam_tuples[t].tolist())

    n = len(power)
    best_rate = np.zeros(n)
    best = np.zeros((n, 3), dtype=int)  # (k, subset, beam tuple) of each winner; k = 0 schedules nobody
    for k in range(1, n_s + 1):
        subsets, beam_tuples = _brute_tables(n_users, len(C), k)
        if not len(subsets):
            break
        n_sub, n_tup = len(subsets), len(beam_tuples)
        noise = k / power
        tops, args = np.full(n, np.nan), np.zeros(n, dtype=int)  # each problem's best and its first flat (subset, tuple) hit
        span = max(1, _BRUTE_BLOCK // n_users)  # beam tuples per rate table
        for t0 in range(0, n_tup, span):
            tuples = beam_tuples[t0 : t0 + span]
            group = max(1, _BRUTE_BLOCK // (max(n_sub, n_users) * len(tuples)))  # problems per rate table
            step = max(1, _BRUTE_BLOCK // (group * len(tuples)))  # subsets per pass
            for p in range(0, n, group):
                part = slice(p, p + group)
                held = pw[part]
                # gains[j][q, u, t]: power of user u of problem q on the beam at position j of tuple t
                gains = [held[:, :, tuples[:, j]] for j in range(k)]
                # table[i][q, u, t]: rate of that user scheduled at position i of tuple t
                table = [rate(gains[i], gains[:i] + gains[i + 1 :], noise[part, None, None]) for i in range(k)]
                for lo in range(0, n_sub, step):
                    sub = subsets[lo : lo + step]
                    total = ordered_sum(r[:, sub[:, i]] for i, r in enumerate(table)).reshape(len(held), -1)
                    arg = np.argmax(total, axis=1)  # NaN-first, like max
                    top = total[np.arange(len(total)), arg]
                    odd = np.flatnonzero(np.isnan(top))
                    if len(odd):  # the largest non-NaN score, NaN only where a whole row is NaN
                        top[odd] = np.fmax.reduce(total[odd], axis=1)
                        arg[odd] = np.argmax(total[odd] == top[odd, None], axis=1)
                    s, t = np.divmod(arg, len(tuples))
                    flat = (lo + s) * n_tup + t0 + t
                    kept, kept_at = tops[part], args[part]  # views
                    # a pass wins with a larger score, or an equal one at a smaller flat index
                    better = (top > kept) | (top == kept) & (flat < kept_at) | np.isnan(kept) & ~np.isnan(top)
                    np.copyto(kept, top, where=better)
                    np.copyto(kept_at, flat, where=better)
        first, arg = np.divmod(args, n_tup)
        win = tops > best_rate  # False for NaN
        # an exact tie with a scheduled winner goes to the smaller key; a 0 rate keeps ((), ())
        for i in np.flatnonzero((tops == best_rate) & (tops > 0)).tolist():
            win[i] = key(k, first[i], arg[i]) < key(*best[i].tolist())
        best_rate[win] = tops[win]
        best[win, 0] = k
        best[win, 1] = first[win]
        best[win, 2] = arg[win]
    users = np.full((n, n_s), -1)
    beams = users.copy()
    for k in set(best[:, 0].tolist()) - {0}:  # not np.unique, whose first call imports numpy.ma (~30 ms)
        subsets, beam_tuples = _brute_tables(n_users, len(C), k)
        won = np.flatnonzero(best[:, 0] == k)
        users[won, :k] = subsets[best[won, 1]]
        beams[won, :k] = beam_tuples[best[won, 2]]
    return users, beams, best_rate


def _check_problems(vectors, C, n_s, P):
    """Users per problem and the powers P of a scheduling stack as an
    array."""
    if vectors.shape[1] < 1:
        raise ValueError("need at least one user")
    if len(C) < n_s:
        raise ValueError(f"codebook too small: |C|={len(C)} < n_s={n_s}")
    return vectors.shape[1], np.asarray(P, dtype=float)


def _one_problem(block_fn, vectors, C, params):
    """ScheduleDecision of one problem (a dict user -> vector) from the
    stacked scheduler `block_fn`."""
    ids = sorted(vectors)
    users, beams, rate = block_fn(np.array([[vectors[m] for m in ids]], dtype=complex), C, params.n_s, [params.P])
    pairs = {ids[u]: b for u, b in zip(users[0].tolist(), beams[0].tolist()) if u >= 0}
    return ScheduleDecision(BeamAssignment(pairs), float(rate[0]))


def schedule_bruteforce(vectors, C, params):
    """Exact maximizer of the sum rate over user subsets and injective beam
    maps for one problem (a dict user -> vector): the one-problem case of
    `schedule_bruteforce_block`."""
    return _one_problem(schedule_bruteforce_block, vectors, C, params)


def schedule_greedy_block(vectors, C, n_s, P):
    """Greedy insertion for a stack of problems, arguments and padded
    result as in `schedule_bruteforce_block`: repeatedly add the (user,
    beam) pair that most increases the predicted sum rate; stop at n_s
    users or when no insertion strictly improves.  Ties go to the smallest
    (user, beam).

    Every problem still running takes step k together: the candidate sets
    (its pairs plus one free pair, users in increasing order) of all of
    them are scored in one `_brute_scores` pass, as the brute scheduler
    scores each set."""
    n_users, power = _check_problems(vectors, C, n_s, P)
    pw = beam_powers(vectors, C)  # (problems, users, beams)
    n_problems, n_beams = len(pw), len(C)
    users = np.full((n_problems, n_s), -1)  # each problem's pairs, users in increasing order
    beams = users.copy()
    best = np.zeros(n_problems)
    running = np.arange(n_problems)
    for k in range(1, n_s + 1):
        held_users, held_beams = users[running, : k - 1], beams[running, : k - 1]
        free = np.ones((len(running), n_users, n_beams), dtype=bool)
        rows = np.arange(len(running))[:, None]
        free[rows, held_users] = False
        free[rows, :, held_beams] = False
        r_idx, u_idx, b_idx = np.nonzero(free)  # row-major: a problem's candidates in (user, beam) order
        set_users = np.concatenate([held_users[r_idx], u_idx[:, None]], axis=1)
        order = np.argsort(set_users, axis=1)
        set_users = np.take_along_axis(set_users, order, axis=1)
        set_beams = np.take_along_axis(np.concatenate([held_beams[r_idx], b_idx[:, None]], axis=1), order, axis=1)
        prob, flat = running[r_idx], u_idx * n_beams + b_idx
        gains = [[pw[prob, set_users[:, i], set_beams[:, j]] for j in range(k)] for i in range(k)]
        score = np.full((len(running), n_users * n_beams), -np.inf)
        score[r_idx, flat] = _brute_scores(gains, k / power[prob])
        where = np.zeros(score.shape, dtype=int)
        where[r_idx, flat] = np.arange(len(r_idx))
        pick = np.argmax(score, axis=1)
        top = score[np.arange(len(running)), pick]
        grow = ~(top <= best[running])  # a NaN top grows, as argmax picks it first
        won = where[grow, pick[grow]]
        running = running[grow]
        best[running] = top[grow]
        users[running, :k] = set_users[won]
        beams[running, :k] = set_beams[won]
    return users, beams, best


def schedule_greedy(vectors, C, params):
    """Greedy insertion on one problem (a dict user -> vector): the
    one-problem case of `schedule_greedy_block`."""
    return _one_problem(schedule_greedy_block, vectors, C, params)


def _zf_solve(A):
    """Full-rank mask of a stack of (k, n_t) conjugated-direction matrices,
    and the pseudo-inverses of its full-rank members, from one SVD: a
    member is full rank when k of its singular values exceed 1e-10, and
    its pseudo-inverse follows `np.linalg.pinv`'s own arithmetic (rcond
    1e-15 of the largest singular value).  numpy solves a stack matrix by
    matrix, so each equals `pinv` on that matrix alone.  The greedy
    zeroforcing scheduler calls it only on each step's shortlist."""
    u, s, vt = np.linalg.svd(A.conj(), full_matrices=False)
    full = np.count_nonzero(s > 1e-10, axis=-1) == A.shape[-2]
    u, s, vt = u[full], s[full], vt[full]
    large = s > 1e-15 * s.max(axis=-1, keepdims=True)
    s_inv = np.divide(1, s, where=large, out=np.zeros_like(s))
    return full, np.swapaxes(vt, -1, -2) @ (s_inv[..., None] * np.swapaxes(u, -1, -2))


ZF_SLACK = 2.0**-42  # closed-form score error per unit of k * (d^2 + |score|); the bound test meets 1/700 of it
ZF_MAX_D = 1e6  # largest Gram-inverse diagonal d at which a closed-form score is trusted


def _zf_score_bounds(held, prev, cands, prev_sq, cand_sq, noise):
    """Bounds (lo, hi) on the exact ZF score of every (draw, candidate) set
    of a greedy step, from a closed form with no LAPACK call.

    held (draws, k-1, n_t) are the columns of the chosen set's
    pseudo-inverse B, prev (draws, k-1, n_t) its conjugated unit
    directions, cands (draws, users, n_t) every user's; prev_sq and cand_sq
    are the squared norms of the chosen and candidate vectors, noise each
    draw's k / P.  The chosen set's Gram inverse is G^-1 = B^H B; a
    candidate's correlations c with the chosen directions give its Schur
    complement s = 1 - c^H G^-1 c and the grown set's Gram-inverse diagonal,
    [G^-1]_ii + |(G^-1 c)_i|^2 / s and 1 / s.  A member's gain is its
    squared norm over its diagonal entry, and the score is the sum of
    `rates.rate` over the gains.

    Where s > 0 and the largest diagonal entry d is at most `ZF_MAX_D`,
    the exact score (from `_zf_solve`'s beams) lies within
    ZF_SLACK * k * (d^2 + |score|) of the closed-form one; the d^2 term is
    the cancellation in s.  Elsewhere the bounds are -inf and inf."""
    g_inv = np.conj(held) @ np.swapaxes(held, 1, 2)
    c = np.conj(cands) @ np.swapaxes(prev, 1, 2)  # (draws, users, k-1)
    w = c @ np.swapaxes(g_inv, 1, 2)  # G^-1 c
    s = 1.0 - np.einsum("dui,dui->du", c.conj(), w).real
    ok = s > 0
    s = np.where(ok, s, 1.0)
    diag = np.real(np.diagonal(g_inv, axis1=1, axis2=2))[:, None] + abs_sq(w) / s[..., None]
    d = np.maximum(diag.max(axis=-1, initial=0.0), 1.0 / s)
    gains = np.concatenate([prev_sq[:, None] / diag, (cand_sq * s)[..., None]], axis=-1)
    score = rate(gains, (), noise[:, None, None]).sum(axis=-1)
    known = ok & (d <= ZF_MAX_D) & np.isfinite(score)
    score, d = np.where(known, score, 0.0), np.where(known, d, 0.0)
    slack = ZF_SLACK * gains.shape[-1] * (d * d + np.abs(score))
    return np.where(known, score - slack, -np.inf), np.where(known, score + slack, np.inf)


def zf_decision_for(users, cdis, params):
    """Zeroforcing PrecodedDecision of `users` for their channel directions.

    Beams are the pseudo-inverse columns of the stacked conjugated
    directions, normalized to unit norm, so beam i is orthogonal to every
    direction j != i.  Power is split equally at rate evaluation.
    """
    cdis = [np.asarray(v, dtype=complex) for v in cdis]
    if not cdis:
        raise ValueError("need at least one direction")
    full, B = _zf_solve(np.array([np.conj(v) for v in cdis])[None])
    if not full[0]:
        raise ValueError("channel directions are linearly dependent; cannot zeroforce")
    # each column over its own norm, as `zf_schedule_block` normalizes its beams
    return PrecodedDecision(users=tuple(users), beams=tuple(B[0].T / row_norms(B[0].T)[:, None]))


def _zf_exact(v, B, noise):
    """Exact ZF score of each set of a stack: v (sets, k, n_t) its members'
    vectors, B (sets, n_t, k) its pseudo-inverse from `_zf_solve`, noise
    its k / P.  Each column of B over its norm is a member's beam, which
    nulls the others, so a member's rate is `rates.rate` of its own-beam
    power; the rates are added in position order, as a sum over users."""
    units = B / np.linalg.norm(B, axis=1, keepdims=True)
    sig = np.abs(np.einsum("cin,cni->ci", v.conj(), units)) ** 2
    return ordered_sum(rate(sig, (), noise[:, None]).T)


ZF_PARALLEL = 1e-24  # largest squared residual, per unit of the combination's squared norm, of a dropped set


def _zf_parallel(held, prev, cands):
    """Which candidates' conjugated unit directions cands (sets, n_t) lie
    in the span of their chosen set's, prev (sets, k-1, n_t), whose
    pseudo-inverse has columns held (sets, k-1, n_t): the coefficients
    y = cands B give the residual r = cands - y prev, and a candidate is
    parallel when |r|^2 < ZF_PARALLEL (1 + |y|^2).

    The grown set's rows combined with weights (-y, 1) leave r, so its
    smallest singular value is at most |r| / sqrt(1 + |y|^2) < 1e-12;
    rounding r adds about 1e-15 of that norm, so `_zf_solve`'s rank rule
    (all singular values above 1e-10) rejects every set this drops."""
    y = np.einsum("sn,sin->si", cands, held)
    r = cands - np.einsum("si,sin->sn", y, prev)
    return np.vecdot(r, r).real < ZF_PARALLEL * (1.0 + np.vecdot(y, y).real)


def zf_schedule_block(vectors, n_s, P):
    """Greedy zeroforcing user selection of at most n_s users on the
    reported vectors (draws, users, n_t) of many draws, P holding each
    draw's power.

    For each draw the user maximizing the predicted ZF sum rate is added,
    one at a time: interference is nulled by construction, so each user's
    prediction uses only its own-beam alignment.  A draw stops at n_s
    users or when no candidate strictly improves its prediction; ties go
    to the smallest user.  Zero vectors and linearly dependent direction
    sets are never scheduled.  Returns (users, beams, predicted): each
    draw's users in the order they were added, padded with -1, their unit
    beams (draws, min(n_s, n_t), n_t), zero-padded, and the
    predicted sum rate, 0.0 for a draw that schedules nobody.

    Every draw still running takes greedy step k together.  First every
    (draw, candidate) set gets bounds on its score from a closed form on
    the previous winner's pseudo-inverse (`_zf_score_bounds`, no LAPACK
    call).  At k >= 2 an unbounded candidate whose direction lies in the
    chosen set's span (`_zf_parallel`: smallest singular value of the grown
    set at most its normalized residual, below 1e-12) is dropped, as the
    rank test would reject it.  Only each draw's shortlist, the sets whose
    upper bound reaches the draw's best lower bound (every remaining set
    the closed form cannot bound among them, usually one set in all), then
    goes through one stacked rank test and pseudo-inverse (`_zf_solve`) and
    the exact score.  A set off the shortlist scores strictly below a
    shortlisted one, so the winner, its exact score and ties to the
    smallest user are those of scoring every set exactly.

    A draw whose step-1 shortlist is one bounded set with a positive lower
    bound adds that user without a pseudo-inverse: the set's exact score
    exceeds the empty schedule's 0.  Step 2 bounds its sets from the
    closed-form pseudo-inverse of the one unit row a, conj(a) / |a|^2,
    whose rounding ZF_SLACK covers, and the draw grows where its exact
    step-2 top exceeds the step-1 upper bound.  Only where it does not, so
    that the draw stops at one user or its growth is left open, is the
    step-1 set solved and scored exactly, as step 1 would have.

    Unit directions and the winners' beams are normalized by stacked
    `row_norms` passes, each norm equal to that of its vector alone, so
    each beam equals `zf_decision_for`'s on the same set bit for bit; the
    stacked scores only pick the winner.
    """
    raw = np.asarray(vectors, dtype=complex)
    n_draws, width, n_t = raw.shape
    power = np.asarray(P, dtype=float)
    norm = row_norms(raw)
    usable = norm != 0  # False for zero vectors
    conj_units = np.conj(raw / np.where(usable, norm, 1.0)[..., None])  # conjugated unit directions
    running = np.arange(n_draws)
    chosen = np.zeros((n_draws, 0), dtype=int)  # users each running draw has added, in order
    best_sum = np.zeros(n_draws)
    k_max = min(n_s, n_t)
    users = np.full((n_draws, k_max), -1)  # each draw's users, in the order they were added
    beams = np.zeros((n_draws, k_max, n_t), dtype=complex)  # the pseudo-inverse columns of their last step
    deferred = np.zeros(n_draws, dtype=bool)  # one user added at step 1 with no exact score yet
    deferred_hi = np.zeros(n_draws)  # that set's step-1 upper bound
    for k in range(1, k_max + 1):
        rows = np.arange(len(running))
        open_ = usable[running]
        open_[rows[:, None], chosen] = False
        noise = k / power[running]
        held, prev = beams[running, : k - 1], conj_units[running[:, None], chosen]
        prev_sq = norm[running[:, None], chosen] ** 2
        lo, hi = _zf_score_bounds(held, prev, conj_units[running], prev_sq, norm[running] ** 2, noise)
        if k > 1:
            r_u, j_u = np.nonzero(open_ & (lo == -np.inf))
            open_[r_u, j_u] = ~_zf_parallel(held[r_u], prev[r_u], conj_units[running[r_u], j_u])
        # a set whose upper bound is below another set's lower bound cannot win
        short = open_ & (hi >= np.max(lo, axis=1, where=open_, initial=-np.inf)[:, None])
        lone = np.zeros(len(running), dtype=bool)  # draws that add their step-1 user unsolved
        if k == 1 < k_max:
            lone_j = np.argmax(short, axis=1)
            a = conj_units[running, lone_j]
            a_sq = np.vecdot(a, a).real  # above 0.5, the row's one singular value passes the rank test
            lone = (np.count_nonzero(short, axis=1) == 1) & (lo[rows, lone_j] > 0) & (a_sq > 0.5)
            short[lone] = False
        r_idx, j_idx = np.nonzero(short)  # row-major: a draw's sets in user order
        pending = deferred[running]
        if not len(r_idx) and not lone.any():
            _settle_deferred(running[pending], chosen[pending], raw, conj_units, power, best_sum, beams)
            break
        score = np.full((len(running), width), -np.inf)
        where = np.zeros((len(running), width), dtype=int)
        if len(r_idx):
            sets = np.concatenate([chosen[r_idx], j_idx[:, None]], axis=1)
            d_idx = running[r_idx]
            full, B = _zf_solve(conj_units[d_idx[:, None], sets])
            score[r_idx[full], j_idx[full]] = _zf_exact(raw[d_idx[full][:, None], sets[full]], B, noise[r_idx[full]])
            where[r_idx[full], j_idx[full]] = np.arange(len(B))
        pick = np.argmax(score, axis=1)
        top = score[rows, pick]
        late = pending & (top <= deferred_hi[running])  # stops at one user, or its growth is left open
        _settle_deferred(running[late], chosen[late], raw, conj_units, power, best_sum, beams)
        grow = ~(top <= best_sum[running]) | pending & ~late | lone
        solved = grow & ~lone
        if solved.any():
            best_sum[running[solved]] = top[solved]
            beams[running[solved], :k] = np.swapaxes(B[where[solved, pick[solved]]], 1, 2)
        if lone.any():
            pick[lone] = lone_j[lone]
            beams[running[lone], 0] = np.conj(a[lone]) / a_sq[lone, None]  # the closed-form pseudo-inverse row
            deferred_hi[running[lone]] = hi[lone, lone_j[lone]]
        deferred[running] = lone
        chosen = np.concatenate([chosen, pick[:, None]], axis=1)[grow]
        running = running[grow]
        users[running, :k] = chosen
    norm = row_norms(beams)
    return users, beams / np.where(norm == 0, 1.0, norm)[..., None], best_sum


def _settle_deferred(d, chosen, raw, conj_units, power, best_sum, beams):
    """Solve and score exactly the one-user sets chosen[:, 0] of the draws
    d, which step 1 added without a pseudo-inverse, and set their
    predicted sums and beams as step 1 would have."""
    if len(d):
        sets = chosen[:, :1]
        B = _zf_solve(conj_units[d[:, None], sets])[1]  # full rank: a unit row
        best_sum[d] = _zf_exact(raw[d[:, None], sets], B, 1 / power[d])
        beams[d, :1] = np.swapaxes(B, 1, 2)


def zf_schedule(vectors, params):
    """Greedy zeroforcing selection on one draw's reported vectors (a dict
    user -> vector): the one-draw case of `zf_schedule_block`, as a
    (PrecodedDecision, predicted sum rate) pair."""
    ids = sorted(vectors)
    stack = np.array([vectors[m] for m in ids], dtype=complex).reshape(1, len(ids), params.n_t)
    users, beams, predicted = zf_schedule_block(stack, params.n_s, [params.P])
    k = np.count_nonzero(users[0] >= 0)
    return PrecodedDecision(tuple(ids[u] for u in users[0, :k].tolist()), tuple(beams[0, :k])), float(predicted[0])


def realize_rates_block(users, beams, sub_h_hat, P, C=None):
    """Actual rates of many decisions on the true channels, given as the
    padded arrays the schedulers return: users (problems, k) by position,
    -1 for none, and their beams, codeword indices into C or, with C None,
    beam vectors (problems, k, n_t).  Returns the rate of every position
    (0.0 where nobody is scheduled) and the sum rate of every problem.

    sub_h_hat (problems, users, F, n_t) holds every user's filtered
    subcarrier channels (`channel.EffectiveBlock.sub_h_hat`): each user
    receives with the MRC filter of its averaged channel, the receiver its
    feedback and the scheduler assume, and realizes the mean over
    subcarriers of the rate formula; P holds each problem's power.

    Every (problem, scheduled user, subcarrier) row goes through one
    `rates.rates_with_beams` pass against its problem's zero-padded beams;
    the per-user mean over subcarriers and the sum over positions run in
    position order.  So every problem equals the computation on it alone
    bit for bit.
    """
    users = np.asarray(users)
    live = users >= 0
    table = np.where(live[..., None], np.asarray(beams) if C is None else C.vectors[beams], 0.0)
    prob, own = np.nonzero(live)  # problem-major, positions in order
    per_user = np.zeros(users.shape)
    if len(prob):
        k = np.count_nonzero(live, axis=1)
        noise = k[prob] / np.asarray(P, dtype=float)[prob]
        v = sub_h_hat[prob, users[prob, own]]  # (rows, F, n_t)
        rates = rates_with_beams(v, table[prob][:, None], own[:, None], noise[:, None])  # (rows, F)
        per_user[prob, own] = np.mean(rates, axis=1)
    # in position order, as the scalar sum; nobody adds 0.0
    return per_user, ordered_sum(per_user.T, np.zeros(len(users)))


def realize_rates(decision, channels, params, C=None):
    """Actual rates of a decision on the true channels: the one-draw case
    of `realize_rates_block`.  `channels` maps user -> UserChannel."""
    if isinstance(decision, PrecodedDecision):
        users, beams, C = list(decision.users), [list(decision.beams)], None
    else:
        users = decision.assignment.users
        beams = [[decision.assignment.pairs[m] for m in users]]
    if not users:
        return RateReport(per_user={}, sum=0.0)
    sub = user_channels_block([channels[m] for m in users]).sub_h_hat
    per_user, total = realize_rates_block([range(len(users))], beams, sub[None], [params.P], C=C)
    return RateReport(per_user=dict(zip(users, per_user[0].tolist())), sum=float(total[0]))
