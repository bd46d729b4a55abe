"""Base-station side: user selection, beam assignment, and the zeroforcing baseline.

Scheduling maximizes the sum rate computed from whatever per-user vectors
the base station holds (true effective channels under perfect CSIT, scaled
quantization vectors under partial CSIT).  Brute force solves the
combinatorial problem exactly; the greedy variant inserts the best
(user, beam) pair until no insertion improves the rate.  The zeroforcing
baseline selects users greedily too, with beams from the pseudo-inverse of
the chosen directions; `zf_schedule_block` runs that selection for a
block of draws at once, one stacked rank test and pseudo-inverse per
greedy step, and `zf_schedule` is its one-draw case.
"""

from dataclasses import dataclass
from itertools import combinations, permutations

import numpy as np

from .channel import mrc_filter
from .rates import BeamAssignment, RateReport, rate_with_beams

BRUTE_MAX_USERS = 12
BRUTE_MAX_BEAMS = 32


@dataclass(frozen=True)
class ScheduleDecision:
    assignment: BeamAssignment
    predicted_sum_rate: float
    method: str


@dataclass(frozen=True)
class PrecodedDecision:
    """Zeroforcing decision: per-user beams that are not codebook entries."""

    users: tuple
    beams: tuple  # unit-norm vectors, aligned with users
    method: str = "zeroforcing"


def _power_table(users, vectors, C):
    return np.array([np.abs(C.vectors @ np.conj(vectors[m])) ** 2 for m in users])


_BRUTE_TABLES = {}
_BRUTE_BLOCK = 1 << 16  # (subset, beam tuple) candidates evaluated per numpy block


def _brute_tables(n_users, n_beams, k):
    """All k-user subsets (sorted index tuples) and injective k-beam tuples."""
    key = (n_users, n_beams, k)
    if key not in _BRUTE_TABLES:
        subsets = np.array(list(combinations(range(n_users), k)), dtype=int).reshape(-1, k)
        beam_tuples = np.array(list(permutations(range(n_beams), k)), dtype=int).reshape(-1, k)
        _BRUTE_TABLES[key] = (subsets, beam_tuples)
    return _BRUTE_TABLES[key]


def schedule_bruteforce(vectors, C, params):
    """Exact maximizer of the sum rate over user subsets and injective beam maps.

    Ties break to the lexicographically smallest (sorted user tuple, beam
    tuple).  Guarded against combinatorial blowup; use the greedy scheduler
    for larger instances.

    Every (subset, beam tuple) candidate is scored in numpy blocks with the
    same operation order as the scalar rate formula (interference summed
    over the other positions in order, rates added position by position),
    so the scores, and hence the argmax and its tie-break, do not depend on
    the blocking.
    """
    users = sorted(vectors)
    if len(users) < 1:
        raise ValueError("need at least one user")
    if len(users) > BRUTE_MAX_USERS or len(C) > BRUTE_MAX_BEAMS:
        raise ValueError(
            f"brute-force scheduling refused for |U|={len(users)}, |C|={len(C)}; use greedy"
        )
    if len(C) < params.n_s:
        raise ValueError(f"codebook too small: |C|={len(C)} < n_s={params.n_s}")
    pw = _power_table(users, vectors, C)
    best_rate = 0.0
    best_key = ((), ())
    for k in range(1, params.n_s + 1):
        subsets, beam_tuples = _brute_tables(len(users), len(C), k)
        noise = params.sigma_sq * k / params.P
        step = max(1, _BRUTE_BLOCK // len(beam_tuples))
        for lo in range(0, len(subsets), step):
            block = subsets[lo : lo + step]
            # gains[i][j][s, b]: power of the block's i-th user on beam position j
            gains = [[pw[block[:, i]][:, beam_tuples[:, j]] for j in range(k)] for i in range(k)]
            total = 0.0
            for i in range(k):
                intf = 0
                for j in range(k):
                    if j != i:
                        intf = intf + gains[i][j]
                total = total + np.log1p(gains[i][i] / (noise + intf))
            top = np.fmax.reduce(total, axis=None)
            if not top >= best_rate:  # also skips an all-NaN block
                continue
            hits = np.argwhere(total == top)
            key = min(
                (tuple(users[u] for u in block[s]), tuple(int(b) for b in beam_tuples[t])) for s, t in hits
            )
            if top > best_rate or key < best_key:
                best_rate = float(top)
                best_key = key
    assignment = BeamAssignment(dict(zip(best_key[0], best_key[1])))
    return ScheduleDecision(assignment, best_rate, "brute")


def schedule_greedy(vectors, C, params):
    """Greedy insertion: repeatedly add the (user, beam) pair that most
    increases the re-evaluated sum rate; stop at n_s users or when no
    insertion strictly improves.  Ties go to the smallest (user, beam)."""
    users = sorted(vectors)
    if len(users) < 1:
        raise ValueError("need at least one user")
    if len(C) < params.n_s:
        raise ValueError(f"codebook too small: |C|={len(C)} < n_s={params.n_s}")
    pw = _power_table(users, vectors, C)
    uidx = {m: i for i, m in enumerate(users)}
    members = []  # row indices into pw
    beams = []
    current = 0.0
    while len(members) < params.n_s:
        k_new = len(members) + 1
        noise = params.sigma_sq * k_new / params.P
        free_users = [i for i in range(len(users)) if i not in members]
        free_beams = [j for j in range(len(C)) if j not in beams]
        if not free_users or not free_beams:
            break
        cand = np.full((len(free_users), len(free_beams)), -np.inf)
        intf_existing = pw[:, beams].sum(axis=1) if beams else np.zeros(len(users))
        for a, i in enumerate(free_users):
            new_user = np.log1p(pw[i, free_beams] / (noise + intf_existing[i]))
            rest = np.zeros(len(free_beams))
            for pos, l in enumerate(members):
                sig = pw[l, beams[pos]]
                base_intf = intf_existing[l] - pw[l, beams[pos]]
                rest += np.log1p(pw[l, beams[pos]] / (noise + base_intf + pw[l, free_beams]))
            cand[a] = new_user + rest
        flat = int(np.argmax(cand))
        a, b = divmod(flat, len(free_beams))
        if cand[a, b] <= current:
            break
        members.append(free_users[a])
        beams.append(free_beams[b])
        current = float(cand[a, b])
    assignment = BeamAssignment({users[i]: beams[pos] for pos, i in enumerate(members)})
    return ScheduleDecision(assignment, current, "greedy")


_ZF_BATCH_ELEMENTS = 1 << 11  # direction entries (candidate sets x n_s x n_t) one stacked greedy step holds


def zf_batch_group(params):
    """(draw, user) pairs of one `zf_schedule_block` call: the harness
    sizes zeroforcing blocks by it, as it sizes ra-full blocks by
    `feedback.ra_batch_group`."""
    return max(1, _ZF_BATCH_ELEMENTS // (params.n_s * params.n_t))


def _zf_solve(A):
    """Full-rank mask of a stack of (k, n_t) conjugated-direction matrices,
    and the pseudo-inverses of its full-rank members.  numpy solves a
    stack matrix by matrix, so each equals the call on that matrix alone."""
    full = np.linalg.matrix_rank(A, tol=1e-10) == A.shape[-2]
    return full, np.linalg.pinv(A[full])


def _unit_columns(B):
    """The columns of B, each divided by its own 1-D norm."""
    return tuple(b / np.linalg.norm(b) for b in B.T)


def zf_precode(cdis, params):
    """Zeroforcing beams for the given channel directions.

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
    return PrecodedDecision(users=tuple(range(len(cdis))), beams=_unit_columns(B[0]))


def zf_decision_for(users, cdis, params):
    """PrecodedDecision with explicit user ids attached."""
    base = zf_precode(cdis, params)
    return PrecodedDecision(users=tuple(users), beams=base.beams)


def zf_schedule_block(vectors_per_draw, params):
    """Greedy zeroforcing user selection on the reported vectors of many draws.

    For each draw (a dict user -> reported vector) the user maximizing the
    predicted ZF sum rate is added, one at a time: interference is nulled
    by construction, so each user's prediction uses only its own-beam
    alignment.  A draw stops at n_s users or when no candidate strictly
    improves its prediction; ties go to the smallest user.  Zero vectors
    and linearly dependent direction sets are never scheduled.  Returns one
    (PrecodedDecision, predicted sum rate) per draw, users in the order
    they were added; a draw that schedules nobody gets ((), ()) and 0.0.

    Every draw still running takes greedy step k together: the (chosen
    users + one candidate) sets of all of them go through one stacked rank
    test and pseudo-inverse.  Unit directions and the winners' beams are
    normalized vector by vector, so each beam equals `zf_precode`'s on the
    same set bit for bit; the stacked scores only pick the winner.
    """
    ids = [sorted(vectors) for vectors in vectors_per_draw]
    n_draws, width = len(ids), max(map(len, ids), default=0)
    raw = np.zeros((n_draws, width, params.n_t), dtype=complex)
    conj_units = np.zeros_like(raw)  # conjugated unit directions; zero for a zero vector
    usable = np.zeros((n_draws, width), dtype=bool)
    for d, vectors in enumerate(vectors_per_draw):
        for j, m in enumerate(ids[d]):
            v = np.asarray(vectors[m], dtype=complex)
            norm = np.linalg.norm(v)
            raw[d, j] = v
            if norm != 0:
                conj_units[d, j] = np.conj(v / norm)
                usable[d, j] = True
    running = np.arange(n_draws)
    chosen = np.zeros((n_draws, 0), dtype=int)  # slots each running draw has added, in order
    best_sum = np.zeros(n_draws)
    final = [None] * n_draws  # (chosen slots, pseudo-inverse) of each draw's last step
    for k in range(1, min(params.n_s, params.n_t) + 1):
        open_ = usable[running]
        open_[np.arange(len(running))[:, None], chosen] = False
        r_idx, j_idx = np.nonzero(open_)  # row-major: a draw's sets in user order
        if not len(r_idx):
            break
        sets = np.concatenate([chosen[r_idx], j_idx[:, None]], axis=1)
        d_idx = running[r_idx]
        full, B = _zf_solve(conj_units[d_idx[:, None], sets])
        beams = B / np.linalg.norm(B, axis=1, keepdims=True)
        v = raw[d_idx[full][:, None], sets[full]]
        sig = np.abs(np.einsum("cin,cni->ci", v.conj(), beams)) ** 2
        rates = np.log1p(sig / (params.sigma_sq * k / params.P))
        total = rates[:, 0]
        for i in range(1, k):  # added in position order, as a sum over users
            total = total + rates[:, i]
        score = np.full((len(running), width), -np.inf)
        score[r_idx[full], j_idx[full]] = total
        where = np.zeros((len(running), width), dtype=int)
        where[r_idx[full], j_idx[full]] = np.arange(len(total))
        pick = np.argmax(score, axis=1)
        top = score[np.arange(len(running)), pick]
        grow = ~(top <= best_sum[running])
        chosen = np.concatenate([chosen, pick[:, None]], axis=1)[grow]
        running = running[grow]
        best_sum[running] = top[grow]
        for d, slots, c in zip(running, chosen, where[grow, pick[grow]]):
            final[d] = (slots, B[c])
    out = []
    for d, last in enumerate(final):
        if last is None:
            out.append((PrecodedDecision(users=(), beams=()), 0.0))
        else:
            slots, B = last
            users = tuple(ids[d][j] for j in slots)
            out.append((PrecodedDecision(users=users, beams=_unit_columns(B)), float(best_sum[d])))
    return out


def zf_schedule(vectors, params):
    """Greedy zeroforcing selection on one draw's reported vectors: the
    one-draw case of `zf_schedule_block`."""
    return zf_schedule_block([vectors], params)[0]


def realize_rates(decision, channels, params, C=None):
    """Actual rates of a decision on the true channels.

    `channels` maps user -> UserChannel.  Each user receives with the MRC
    filter of its averaged channel, the receiver its feedback and the
    scheduler assume, and its rate is the rate formula on the filtered
    channel; multi-subcarrier channels realize the per-subcarrier average.
    """
    if isinstance(decision, PrecodedDecision):
        users = list(decision.users)
        beam_of = dict(zip(decision.users, decision.beams))
    else:
        users = decision.assignment.users
        beam_of = {m: C[j] for m, j in decision.assignment.pairs.items()}
    k = len(users)
    per_user = {}
    for m in users:
        own = beam_of[m]
        others = [beam_of[l] for l in users if l != m]
        uc = channels[m]
        u = mrc_filter(uc.H)
        vals = [rate_with_beams(Hf.conj().T @ u, own, others, k, params) for Hf in uc.per_subcarrier()]
        per_user[m] = float(np.mean(vals))
    return RateReport(per_user=per_user, sum=float(sum(per_user.values())))
