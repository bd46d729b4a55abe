import warnings
from itertools import combinations, permutations

import numpy as np
import pytest

from ramimo import scheduler
from ramimo.channel import (
    SystemParams,
    UserChannel,
    draw_channel_stack,
    draw_user_channel,
    effective_block,
    mrc_effective_channel,
    user_channels_block,
)
from ramimo.codebook import Codebook, canonical_onb, rvq_codebook
from ramimo.numerics import SeedSpec, ordered_sum, row_norms, sample_complex_gaussian
from ramimo.rates import BeamAssignment, RateReport, rate, rate_with_beams
from ramimo.scheduler import (
    PrecodedDecision,
    ScheduleDecision,
    realize_rates,
    realize_rates_block,
    schedule_bruteforce,
    schedule_bruteforce_block,
    schedule_greedy,
    zf_decision_for,
    zf_schedule,
    zf_schedule_block,
)

E1 = np.array([1.0, 0.0], dtype=complex)
E2 = np.array([0.0, 1.0], dtype=complex)


def reference_enumerator(vectors, C, params):
    """Independent oracle written directly against the definition: loop over
    all subsets and beam tuples, tracking the best sum rate, each user's
    rate from rate_with_beams and added in user order.
    Ties go to the smallest (sorted users, beam tuple) over all set sizes;
    a best rate of 0 schedules nobody."""
    users = sorted(vectors)
    best = (0.0, (), ())
    for k in range(1, params.n_s + 1):
        for S in combinations(users, k):
            for beams in permutations(range(len(C)), k):
                total = sum(
                    rate_with_beams(vectors[m], C[b], [C[c] for c in beams if c != b], k, params) for m, b in zip(S, beams)
                )
                if total > best[0] or (total == best[0] > 0 and (S, beams) < best[1:]):
                    best = (total, S, beams)
    return best


def _random_vectors(n_users, n_t, seed):
    return {m: sample_complex_gaussian(n_t, seed.derive("u", m)) for m in range(n_users)}


def test_brute_single_user_best_beam():
    params = SystemParams(n_t=2, n_s=1, P=2.0)
    C = canonical_onb(2)
    decision = schedule_bruteforce({0: np.array([0.2, 1.0], dtype=complex)}, C, params)
    assert decision.assignment.pairs == {0: 1}


def test_brute_orthogonal_pair():
    params = SystemParams(n_t=2, n_s=2, P=2.0)
    C = canonical_onb(2)
    decision = schedule_bruteforce({0: E1, 1: E2}, C, params)
    assert decision.assignment.pairs == {0: 0, 1: 1}


def test_brute_matches_reference_enumerator():
    params = SystemParams(n_t=2, n_s=2, P=4.0)
    C = canonical_onb(2)
    for i in range(100):
        vectors = _random_vectors(4, 2, SeedSpec(31).derive("i", i))
        decision = schedule_bruteforce(vectors, C, params)
        ref_rate, ref_S, ref_beams = reference_enumerator(vectors, C, params)
        assert decision.predicted_sum_rate == pytest.approx(ref_rate, abs=1e-12)
        assert tuple(decision.assignment.users) == ref_S
        assert tuple(decision.assignment.pairs[m] for m in ref_S) == ref_beams


def test_brute_predicted_rate_consistent():
    params = SystemParams(n_t=2, n_s=2, P=4.0)
    C = canonical_onb(2)
    vectors = np.array([list(_random_vectors(3, 2, SeedSpec(32)).values())])
    users, beams, predicted = schedule_bruteforce_block(vectors, C, params.n_s, [params.P])
    re_eval = realize_rates_block(users, beams, vectors[:, :, None, :], [params.P], C)[1]
    assert predicted[0] == pytest.approx(re_eval[0], abs=1e-12)


def test_brute_complexity_guard():
    params = SystemParams(n_t=2, n_s=2)
    C = canonical_onb(2)
    vectors = _random_vectors(13, 2, SeedSpec(33))
    with pytest.raises(ValueError, match="greedy"):
        schedule_bruteforce(vectors, C, params)


def test_greedy_single_user_matches_brute():
    params = SystemParams(n_t=3, n_s=1, P=2.0)
    C = canonical_onb(3)
    for i in range(20):
        vectors = _random_vectors(4, 3, SeedSpec(34).derive(i))
        b = schedule_bruteforce(vectors, C, params)
        g = schedule_greedy(vectors, C, params)
        assert g.assignment.pairs == b.assignment.pairs
        assert g.predicted_sum_rate == pytest.approx(b.predicted_sum_rate, abs=1e-12)


def test_greedy_orthogonal_pair_matches_brute():
    params = SystemParams(n_t=2, n_s=2, P=2.0)
    C = canonical_onb(2)
    g = schedule_greedy({0: E1, 1: E2}, C, params)
    assert g.assignment.pairs == {0: 0, 1: 1}


def test_greedy_never_beats_brute():
    params = SystemParams(n_t=4, n_s=2, P=10.0)
    C = canonical_onb(4)
    equal = 0
    n = 300
    for i in range(n):
        vectors = _random_vectors(6, 4, SeedSpec(35).derive(i))
        b = schedule_bruteforce(vectors, C, params)
        g = schedule_greedy(vectors, C, params)
        assert g.predicted_sum_rate <= b.predicted_sum_rate + 1e-12
        if g.predicted_sum_rate == pytest.approx(b.predicted_sum_rate, abs=1e-12):
            equal += 1
    # informational: how often greedy is exactly optimal
    assert equal >= 1


def test_greedy_deterministic():
    params = SystemParams(n_t=4, n_s=2, P=10.0)
    C = canonical_onb(4)
    vectors = _random_vectors(6, 4, SeedSpec(36))
    a = schedule_greedy(vectors, C, params)
    b = schedule_greedy(vectors, C, params)
    assert a.assignment.pairs == b.assignment.pairs


def _per_problem_greedy(pw, n_s, noise_per_user):
    """The greedy search as it ran problem by problem before it was
    stacked: power rows pw (users, beams), the new user's rate plus every
    member's rate, interference taken as the total over chosen beams minus
    the member's own.  Returns (users in increasing order, their beams,
    predicted sum rate)."""
    members, chosen, rate = [], [], 0.0
    while len(members) < n_s:
        noise = noise_per_user * (len(members) + 1)
        free_users = [i for i in range(len(pw)) if i not in members]
        free_beams = [j for j in range(pw.shape[1]) if j not in chosen]
        if not free_users or not free_beams:
            break
        cand = np.full((len(free_users), len(free_beams)), -np.inf)
        intf_existing = pw[:, chosen].sum(axis=1) if chosen else np.zeros(len(pw))
        for a, i in enumerate(free_users):
            new_user = np.log1p(pw[i, free_beams] / (noise + intf_existing[i]))
            rest = np.zeros(len(free_beams))
            for pos, l in enumerate(members):
                base_intf = intf_existing[l] - pw[l, chosen[pos]]
                rest += np.log1p(pw[l, chosen[pos]] / (noise + base_intf + pw[l, free_beams]))
            cand[a] = new_user + rest
        a, b = divmod(int(np.argmax(cand)), len(free_beams))
        if cand[a, b] <= rate:
            break
        members.append(free_users[a])
        chosen.append(free_beams[b])
        rate = cand[a, b]
    pairs = sorted(zip(members, chosen))
    return [u for u, _ in pairs], [b for _, b in pairs], float(rate)


@pytest.mark.parametrize("n_t,B", [(2, None), (3, None), (4, None), (4, 3)])
def test_greedy_block_matches_per_problem_search(n_t, B):
    # 1,500 problems per case (6,000 in all) in stacked calls of 1..6
    # users, one call per n_s: zero vectors, fewer users than n_s, n_s =
    # n_t and SNR from -20 to 100 dB.  Users and beams equal the
    # per-problem search's; the predicted sum may differ in the last bit,
    # as the search now adds every set's rates in user order, and it
    # equals the brute scheduler's score of the chosen set bit for bit
    from ramimo.feedback import beam_powers
    from ramimo.scheduler import _brute_scores, schedule_greedy_block

    C = canonical_onb(n_t) if B is None else rvq_codebook(n_t, B, SeedSpec(38).derive("C"))
    rng = np.random.default_rng(n_t * 10 + len(C))
    checked = 0
    for call in range(60):
        n_users = call % 6 + 1
        stack = rng.standard_normal((25, n_users, n_t)) + 1j * rng.standard_normal((25, n_users, n_t))
        stack[rng.random((25, n_users)) < 0.15] = 0.0
        params = [
            SystemParams(n_t=n_t, n_s=int(n_s)).with_snr_db(float(snr))
            for n_s, snr in zip(rng.integers(1, n_t + 1, 25), rng.uniform(-20.0, 100.0, 25))
        ]
        pw = beam_powers(stack, C)
        for n_s in sorted({problem.n_s for problem in params}):
            group = [p for p, problem in enumerate(params) if problem.n_s == n_s]
            users, beams, rate = schedule_greedy_block(stack[group], C, n_s, [params[p].P for p in group])
            for r, p in enumerate(group):
                problem = params[p]
                ref_users, ref_beams, ref_rate = _per_problem_greedy(pw[p], problem.n_s, 1.0 / problem.P)
                k = len(ref_users)
                assert users[r].tolist() == ref_users + [-1] * (users.shape[1] - k)
                assert beams[r].tolist() == ref_beams + [-1] * (beams.shape[1] - k)
                assert rate[r] == pytest.approx(ref_rate, rel=1e-12, abs=0.0)
                if k:
                    gains = [[pw[p, u, b : b + 1] for b in ref_beams] for u in ref_users]
                    assert _brute_scores(gains, np.array([k / problem.P])).tolist() == [rate[r]]
                checked += 1
    assert checked == 1500


def test_zf_of_orthonormal_directions_is_identity():
    params = SystemParams(n_t=2, n_s=2)
    decision = zf_decision_for([0, 1], [E1, E2], params)
    assert np.allclose(np.abs(decision.beams[0]), [1.0, 0.0], atol=1e-12)
    assert np.allclose(np.abs(decision.beams[1]), [0.0, 1.0], atol=1e-12)


def test_zf_nulls_cross_directions():
    params = SystemParams(n_t=4, n_s=2)
    rng_seed = SeedSpec(37)
    dirs = [
        sample_complex_gaussian(4, rng_seed.derive("d", i)) for i in range(3)
    ]
    dirs = [d / np.linalg.norm(d) for d in dirs]
    decision = zf_decision_for(range(len(dirs)), dirs, params)
    for i, b in enumerate(decision.beams):
        assert np.linalg.norm(b) == pytest.approx(1.0, abs=1e-12)
        for j, d in enumerate(dirs):
            if i != j:
                assert abs(np.vdot(d, b)) <= 1e-10


def test_zf_rejects_dependent_directions():
    params = SystemParams(n_t=2, n_s=2)
    with pytest.raises(ValueError, match="depend"):
        zf_decision_for([0, 1], [E1, E1], params)
    with pytest.raises(ValueError, match="depend"):  # more directions than antennas
        zf_decision_for([0, 1, 2], [E1, E2, (E1 + E2) / np.sqrt(2.0)], params)


def test_realize_matches_predicted_under_perfect_csit():
    params = SystemParams(n_t=2, n_r=1, n_s=2, P=4.0)
    C = canonical_onb(2)
    channels = {
        m: draw_user_channel(params, seed=SeedSpec(38).derive("c", m)) for m in range(3)
    }
    vectors = {m: mrc_effective_channel(ch, params).h_hat for m, ch in channels.items()}
    decision = schedule_bruteforce(vectors, C, params)
    realized = realize_rates(decision, channels, params, C=C)
    assert realized.sum == pytest.approx(decision.predicted_sum_rate, abs=1e-12)


@pytest.mark.parametrize("F", [1, 4])
def test_realize_multiantenna_on_mrc_channel(F):
    # two-antenna users receive with the MRC filter of their averaged
    # channel, the receiver feedback and scheduling assume: a flat channel
    # realizes exactly the predicted sum rate, and F subcarriers realize the
    # mean of the rate formula on each subcarrier's filtered channel
    C = canonical_onb(4)
    for snr_db in (0.0, 20.0, 40.0):
        params = SystemParams(n_t=4, n_r=2, n_s=2).with_snr_db(snr_db)
        for i in range(20):
            seed = SeedSpec(41).derive(F, int(snr_db), i)
            channels = {m: draw_user_channel(params, F=F, rho=0.7, seed=seed.derive(m)) for m in range(5)}
            vectors = {m: mrc_effective_channel(ch, params).h_hat for m, ch in channels.items()}
            decision = schedule_bruteforce(vectors, C, params)
            realized = realize_rates(decision, channels, params, C=C)
            if F == 1:
                assert realized.sum == pytest.approx(decision.predicted_sum_rate, abs=1e-12)
            sub = user_channels_block([channels[m] for m in range(5)]).sub_h_hat
            users = [decision.assignment.users]
            beams = [[decision.assignment.pairs[m] for m in users[0]]]
            expected = np.mean([realize_rates_block(users, beams, sub[None, :, f : f + 1], [params.P], C)[1][0] for f in range(F)])
            assert realized.sum == pytest.approx(expected, abs=1e-12)


def test_realize_orthogonal_plugin():
    params = SystemParams(n_t=2, n_r=1, n_s=2, P=4.0)
    C = canonical_onb(2)
    channels = {0: UserChannel(H=E1[None, :].conj()), 1: UserChannel(H=E2[None, :].conj())}
    decision = schedule_bruteforce({0: E1, 1: E2}, C, params)
    realized = realize_rates(decision, channels, params, C=C)
    expected = 2 * np.log(1 + params.P / 2)
    assert realized.sum == pytest.approx(expected, abs=1e-12)


def test_zf_quantized_cdi_realizes_below_prediction():
    # quantized directions leave residual interference that the prediction
    # (which assumes perfect nulling) does not see
    params = SystemParams(n_t=4, n_r=1, n_s=2, P=100.0)
    V = rvq_codebook(4, 3, SeedSpec(39).derive("v"))
    diffs = []
    for i in range(300):
        channels = {m: draw_user_channel(params, seed=SeedSpec(40).derive(i, m)) for m in range(2)}
        effs = {m: mrc_effective_channel(ch, params) for m, ch in channels.items()}
        cdis = {}
        for m, eff in effs.items():
            idx = int(np.argmax(np.abs(V.vectors @ np.conj(eff.h)) ** 2))
            cdis[m] = V[idx]
        try:
            decision = zf_decision_for([0, 1], [cdis[0], cdis[1]], params)
        except ValueError:
            continue
        realized = realize_rates(decision, channels, params)
        predicted = sum(
            np.log1p(
                np.linalg.norm(effs[m].h_hat) ** 2
                * np.abs(np.vdot(effs[m].h, decision.beams[i])) ** 2
                / (2 / params.P)
            )
            for i, m in enumerate([0, 1])
        )
        diffs.append(predicted - realized.sum)
    assert np.mean(diffs) > 0


def test_brute_blocking_and_tie_break(monkeypatch):
    # the decision does not depend on how candidates are blocked, and exact
    # ties (identical users) go to the smallest (users, beams) tuple
    import ramimo.scheduler as sched

    params = SystemParams(n_t=4, n_s=3, P=10.0)
    C = canonical_onb(4)
    cases = [_random_vectors(5, 4, SeedSpec(37).derive(i)) for i in range(10)]
    full = [schedule_bruteforce(v, C, params) for v in cases]
    monkeypatch.setattr(sched, "_BRUTE_BLOCK", 7)
    assert [schedule_bruteforce(v, C, params) for v in cases] == full
    for vectors, decision in zip(cases, full):
        ref_rate, ref_S, ref_beams = reference_enumerator(vectors, C, params)
        assert decision.predicted_sum_rate == pytest.approx(ref_rate, abs=1e-12)
    twin = np.array([0.3, 1.0], dtype=complex)
    single = SystemParams(n_t=2, n_s=1, P=4.0)
    decision = schedule_bruteforce({2: twin, 1: twin.copy(), 3: twin * 0.5}, canonical_onb(2), single)
    assert decision.assignment.pairs == {1: 1}


def test_brute_zero_channels_schedule_nobody():
    params = SystemParams(n_t=2, n_s=2, P=4.0)
    C = canonical_onb(2)
    zero = np.zeros(2, dtype=complex)
    decision = schedule_bruteforce({0: zero, 1: zero}, C, params)
    assert decision.assignment.pairs == {}
    assert decision.predicted_sum_rate == 0.0


def _brute_problems(n_t, seed):
    """Problems of one stacked brute-force call: random users at -20..100
    dB with their own n_s, plus zero vectors, duplicated users (exact ties),
    fewer users than n_s, an all-zero problem, and saturated (infinite)
    powers whose equal rates tie across set sizes."""
    rng = np.random.default_rng(seed)
    problems = []
    for i in range(8):
        n_users = int(rng.integers(1, 5))
        ids = rng.choice(9, n_users, replace=False).tolist()
        vectors = {m: sample_complex_gaussian(n_t, SeedSpec(seed).derive(i, m)) for m in ids}
        if i % 4 == 1:
            vectors[ids[0]] = np.zeros(n_t, dtype=complex)
        if i % 4 == 2 and n_users > 1:
            vectors[ids[1]] = vectors[ids[0]].copy()
        n_s = int(rng.integers(1, n_t + 1))
        problems.append((vectors, n_s, float(rng.uniform(-20.0, 100.0))))
    e = np.eye(n_t, dtype=complex)
    problems += [
        ({3: sample_complex_gaussian(n_t, SeedSpec(seed).derive("one"))}, n_t, 100.0),
        ({0: np.zeros(n_t, dtype=complex), 4: np.zeros(n_t, dtype=complex)}, n_t, 30.0),
        ({5: 0.4 * e[0], 2: 0.4 * e[0], 7: 0.1 * e[-1]}, 1, -20.0),
        # user 1 alone and users (0, 1) both reach an infinite rate: the
        # two-user key is the smaller one
        ({0: e[1], 1: 1e200 * e[0]}, 2, 20.0),
        # users 0 and 1 alone tie with the pair: the one-user key wins
        ({0: 1e200 * e[0], 1: 1e200 * e[1]}, 2, 60.0),
    ]
    return [(vectors, SystemParams(n_t=n_t, n_s=n_s).with_snr_db(snr)) for vectors, n_s, snr in problems]


def _brute_block_decisions(problems, C):
    """ScheduleDecision of every (vectors, params) problem, from one
    `schedule_bruteforce_block` call per (user count, n_s)."""
    out = [None] * len(problems)
    for n, n_s in sorted({(len(vectors), params.n_s) for vectors, params in problems}):
        group = [i for i, (vectors, params) in enumerate(problems) if (len(vectors), params.n_s) == (n, n_s)]
        ids = [sorted(problems[i][0]) for i in group]
        stack = np.array([[problems[i][0][m] for m in u] for i, u in zip(group, ids)])
        users, beams, rate = schedule_bruteforce_block(stack, C, n_s, [problems[i][1].P for i in group])
        assert ((users < 0) == (beams < 0)).all()
        for i, u, row_u, row_b, r in zip(group, ids, users.tolist(), beams.tolist(), rate.tolist()):
            assert row_u == sorted(row_u, key=lambda a: (a < 0, a))  # increasing, padding last
            out[i] = ScheduleDecision(BeamAssignment({u[a]: b for a, b in zip(row_u, row_b) if a >= 0}), r)
    return out


@pytest.mark.parametrize("block", [None, 5])
def test_brute_block_matches_scalar_oracle(monkeypatch, block):
    # one stacked call per (user count, n_s), every problem with its own
    # noise term, and candidates scored in passes of `block` (default or
    # tiny), matches the enumeration oracle's winner, tie-break and
    # predicted rate exactly: on codebooks of unit vectors (duplicated
    # codewords included) the oracle's rates are bit-identical to the
    # scheduler's, so exact ties agree too
    import ramimo.scheduler as sched

    if block is not None:
        monkeypatch.setattr(sched, "_BRUTE_BLOCK", block)
    for n_t in (2, 3, 4):
        onb = canonical_onb(n_t).vectors
        problems = _brute_problems(n_t, 44 + n_t)
        for C in (canonical_onb(n_t), Codebook(np.vstack([onb, onb[::-1][:2]]))):
            # saturated powers overflow to inf, and inf / inf candidates score NaN
            with np.errstate(over="ignore", invalid="ignore"):
                got = _brute_block_decisions(problems, C)
                assert len(got) == len(problems)
                for (vectors, params), decision in zip(problems, got):
                    ref_rate, ref_S, ref_beams = reference_enumerator(vectors, C, params)
                    assert tuple(decision.assignment.users) == ref_S
                    assert tuple(decision.assignment.pairs[m] for m in ref_S) == ref_beams
                    assert decision.predicted_sum_rate == ref_rate
                    assert decision == schedule_bruteforce(vectors, C, params)
            assert got[-4].assignment.pairs == {}  # all-zero problem
            assert got[-3].assignment.pairs == {2: 0}  # twins 2 and 5 tie: the smaller user
            assert got[-2].assignment.pairs == {0: 1, 1: 0}
            assert got[-1].assignment.pairs == {0: 0}
    users, beams, rate = schedule_bruteforce_block(np.zeros((0, 3, 2)), canonical_onb(2), 2, [])
    assert users.shape == beams.shape == (0, 2) and rate.shape == (0,)


def _near_tie_problems():
    """Problems of six users at n_t = n_s = 4, 0-30 dB: users 0-3 close to
    the four canonical beams, so four-user sets (three interferers per
    user) compete, and users 4 and 5 copies of users 0 and 2 scaled by one
    ulp up and down, or, in every third problem, exact copies; on the
    canonical codebook their sets score within a few ulps of the
    originals'."""
    problems = []
    for i, snr in enumerate((0.0, 10.0, 20.0, 30.0, 15.0, 25.0)):
        noise = [sample_complex_gaussian(4, SeedSpec(91).derive(i, m)) for m in range(4)]
        vectors = {m: np.eye(4, dtype=complex)[m] + 0.01 * noise[m] for m in range(4)}
        ulp = 0.0 if i % 3 == 2 else 2.0**-52
        vectors[4] = vectors[0] * (1.0 + ulp)
        vectors[5] = vectors[2] * (1.0 - ulp)
        problems.append((vectors, SystemParams(n_t=4, n_s=4).with_snr_db(snr)))
    return problems


def _enumerated_scores(vectors, C, params):
    """Every (users, beam tuple) candidate's sum rate, as the enumeration
    oracle scores it."""
    users = sorted(vectors)
    return {
        (S, beams): sum(
            rate_with_beams(vectors[m], C[b], [C[c] for c in beams if c != b], k, params) for m, b in zip(S, beams)
        )
        for k in range(1, params.n_s + 1)
        for S in combinations(users, k)
        for beams in permutations(range(len(C)), k)
    }


@pytest.mark.parametrize("block", [None, 7, 50, 720])
def test_brute_block_matches_enumeration_among_near_ties(monkeypatch, block):
    # at n_t = n_s = 4 a scheduled user's rate adds three interferers, in
    # position order, and users that copy another up to one ulp put
    # candidates within a few ulps of the winner; the stacked call picks
    # the enumeration oracle's winner, tie-break and rate bit for bit with
    # default passes, with rate tables of one beam tuple (7) or of a third
    # of them (50), and with tables of two problems each (720)
    import ramimo.scheduler as sched

    if block is not None:
        monkeypatch.setattr(sched, "_BRUTE_BLOCK", block)
    C = canonical_onb(4)
    problems = _near_tie_problems()
    got = _brute_block_decisions(problems, C)
    close = 0
    for (vectors, params), decision in zip(problems, got):
        ref_rate, ref_S, ref_beams = reference_enumerator(vectors, C, params)
        assert (tuple(decision.assignment.users), tuple(decision.assignment.pairs[m] for m in ref_S)) == (ref_S, ref_beams)
        assert decision.predicted_sum_rate == ref_rate
        scores = _enumerated_scores(vectors, C, params)
        assert max(scores.values()) == ref_rate and len(ref_S) == 4
        close += any(0 < ref_rate - v <= 4 * np.spacing(ref_rate) for v in scores.values())
    assert close >= 2  # some runner-up is within four ulps of its winner


@pytest.mark.parametrize("block", [None, 1, 2, 5])
def test_brute_block_ties_across_beam_tuple_runs(monkeypatch, block):
    # users whose powers on the canonical beams are permutations of one
    # another tie exactly between candidates whose beam tuples differ, so
    # with rate tables over short runs of beam tuples a later run can hold
    # an equal score at a smaller user subset; the first key still wins
    import ramimo.scheduler as sched

    if block is not None:
        monkeypatch.setattr(sched, "_BRUTE_BLOCK", block)
    C = canonical_onb(3)
    problems = []
    for i, (n_s, snr) in enumerate([(1, 10.0), (2, 0.0), (2, 30.0), (3, 20.0)]):
        base = sample_complex_gaussian(3, SeedSpec(93).derive(i))
        vectors = {m: base[list(order)] for m, order in enumerate(list(permutations(range(3)))[::-1])}
        problems.append((vectors, SystemParams(n_t=3, n_s=n_s).with_snr_db(snr)))
    got = _brute_block_decisions(problems, C)
    for (vectors, params), decision in zip(problems, got):
        ref_rate, ref_S, ref_beams = reference_enumerator(vectors, C, params)
        assert (tuple(decision.assignment.users), tuple(decision.assignment.pairs[m] for m in ref_S)) == (ref_S, ref_beams)
        assert decision.predicted_sum_rate == ref_rate
        assert list(_enumerated_scores(vectors, C, params).values()).count(ref_rate) > 1  # an exact tie


def _reference_zf_beams(dirs):
    """Unit pseudo-inverse columns of one direction set, None when the
    directions are linearly dependent (the arithmetic of zf_decision_for,
    written out so the oracle shares no code with the scheduler)."""
    A = np.array([np.conj(d) for d in dirs])
    if np.linalg.matrix_rank(A, tol=1e-10) < len(dirs):
        return None
    B = np.linalg.pinv(A)
    return tuple(B[:, i] / np.linalg.norm(B[:, i]) for i in range(len(dirs)))


def reference_zf_schedule(vectors, params):
    """Scalar greedy zeroforcing oracle: one pseudo-inverse and one rate per
    (step, candidate user), the winner the first strict maximum.

    It is a value-level oracle: its `rate_with_beams` scores and Python sum
    can order sets that tie within the last bit (users that copy each
    other up to 1e-13) otherwise than the block scheduler's arithmetic, and
    then picks a twin of the block's user.  `exhaustive_zf_schedule` is the
    bit-level oracle among such ties."""
    users = sorted(vectors)
    units = {}  # unit direction of each user, None for a zero vector
    for u in users:
        v = np.asarray(vectors[u], dtype=complex)
        norm = np.linalg.norm(v)
        units[u] = None if norm == 0 else v / norm
    chosen = []
    best_sum = 0.0
    while len(chosen) < min(params.n_s, params.n_t):
        best = None
        for m in users:
            if m in chosen:
                continue
            cand = chosen + [m]
            dirs = [units[u] for u in cand]
            if any(d is None for d in dirs):
                continue
            beams = _reference_zf_beams(dirs)
            if beams is None:
                continue
            total = sum(rate_with_beams(vectors[u], beams[i], [], len(cand), params) for i, u in enumerate(cand))
            if best is None or total > best[0]:
                best = (total, m, PrecodedDecision(users=tuple(cand), beams=beams))
        if best is None or best[0] <= best_sum:
            break
        best_sum, m_star, final = best
        chosen.append(m_star)
    if not chosen:
        return PrecodedDecision(users=(), beams=()), 0.0
    return final, best_sum


def _assert_same_zf(got, expected):
    (decision, predicted), (ref, ref_predicted) = got, expected
    assert decision.users == ref.users
    assert len(decision.beams) == len(ref.beams)
    for b, r in zip(decision.beams, ref.beams):
        assert b.tobytes() == r.tobytes()
    # the stacked scores only pick the winner and may differ in the last bit
    assert predicted == pytest.approx(ref_predicted, rel=1e-12, abs=1e-15)


def _zf_block(block, params):
    """(PrecodedDecision, predicted) of every draw (a dict user -> vector)
    of `block`, from one `zf_schedule_block` call; the users a draw lacks
    get zero vectors, which are never scheduled."""
    ids = [sorted(vectors) for vectors in block]
    stack = np.zeros((len(block), max(map(len, ids), default=0), params.n_t), dtype=complex)
    for d, vectors in enumerate(block):
        if ids[d]:
            stack[d, : len(ids[d])] = [vectors[m] for m in ids[d]]
    out = []
    for u, b, predicted, draw_ids in zip(*zf_schedule_block(stack, params.n_s, [params.P] * len(block)), ids):
        k = np.count_nonzero(u >= 0)
        assert (u[k:] == -1).all() and not b[k:].any()
        out.append((PrecodedDecision(users=tuple(draw_ids[j] for j in u[:k].tolist()), beams=tuple(b[:k])), predicted))
    return out


def _zf_draw(n_users, n_t, seed, zero=(), copies=(), scaled=()):
    vectors = _random_vectors(n_users, n_t, seed)
    for m in zero:
        vectors[m] = np.zeros(n_t, dtype=complex)
    for m, src in copies:
        vectors[m] = vectors[src].copy()
    for m, src in scaled:
        vectors[m] = (0.3 - 1.7j) * vectors[src]
    return vectors


@pytest.mark.parametrize("n_t, n_s", [(4, 2), (4, 4), (3, 3), (2, 1), (5, 3)])
def test_zf_block_matches_scalar_oracle(n_t, n_s):
    # every draw of a block gets the oracle's users and beams bit for bit:
    # random draws at 0-60 dB, zero vectors, duplicated and linearly
    # dependent directions, single-user draws and all-zero draws, in blocks
    # whose draws stop at different greedy steps
    for snr_db in (0.0, 20.0, 60.0):
        params = SystemParams(n_t=n_t, n_s=n_s).with_snr_db(snr_db)
        seed = SeedSpec(42).derive(n_t, n_s, int(snr_db))
        block = [_zf_draw(7, n_t, seed.derive(i)) for i in range(12)]
        block += [
            _zf_draw(6, n_t, seed.derive("z"), zero=(0, 3)),
            _zf_draw(6, n_t, seed.derive("d"), copies=((1, 0), (4, 0))),
            _zf_draw(6, n_t, seed.derive("s"), scaled=((2, 5), (3, 5)), zero=(1,)),
            _zf_draw(1, n_t, seed.derive("one")),
            _zf_draw(3, n_t, seed.derive("zero"), zero=(0, 1, 2)),
            {5: np.ones(n_t, dtype=complex), 2: 2.0 * np.ones(n_t, dtype=complex)},
        ]
        got = _zf_block(block, params)
        assert len(got) == len(block)
        for vectors, out in zip(block, got):
            expected = reference_zf_schedule(vectors, params)
            _assert_same_zf(out, expected)
            _assert_same_zf(zf_schedule(vectors, params), expected)
        assert got[-2] == (PrecodedDecision(users=(), beams=()), 0.0)
        assert got[-1][0].users == (2,)
        assert len({len(decision.users) for decision, _ in got}) >= min(n_s, 2) + 1
    users, beams, predicted = zf_schedule_block(np.zeros((0, 3, n_t)), n_s, [])
    assert users.shape == (0, n_s) and beams.shape == (0, n_s, n_t) and predicted.shape == (0,)


def test_zf_stops_when_no_candidate_improves():
    # at -40 dB the predicted rates of 3e-161-scaled vectors underflow to
    # exactly 0, which does not improve on the empty schedule's 0
    params = SystemParams(n_t=4, n_s=2).with_snr_db(-40.0)
    block = [{m: 3e-161 * v for m, v in _random_vectors(5, 4, SeedSpec(43).derive(i)).items()} for i in range(4)]
    for vectors, out in zip(block, _zf_block(block, params)):
        assert out == (PrecodedDecision(users=(), beams=()), 0.0)
        _assert_same_zf(out, reference_zf_schedule(vectors, params))
    assert zf_schedule({0: 1e-150 * np.ones(4, dtype=complex)}, params)[0].users == (0,)


def test_zf_all_zero_draw_realizes_nothing():
    params = SystemParams(n_t=3, n_s=2).with_snr_db(20.0)
    channels = {m: UserChannel(H=np.zeros((1, 3))) for m in range(3)}
    vectors = {m: mrc_effective_channel(ch, params).h_hat for m, ch in channels.items()}
    decision, predicted = zf_schedule(vectors, params)
    assert decision.users == () and predicted == 0.0
    assert realize_rates(decision, channels, params).sum == 0.0


def _near_dependent_vectors(rng, n_users, n_t, smallest=1e-12, largest=1e-4, spread=100.0):
    """(n_users, n_t) random vectors where about half the users copy an
    earlier user times a random complex scale of modulus 1/spread to
    spread, plus a perturbation of `smallest` to `largest` (log-uniform)
    of that copy's size."""
    v = rng.standard_normal((n_users, n_t)) + 1j * rng.standard_normal((n_users, n_t))
    for m in range(1, n_users):
        if rng.random() < 0.5:
            scale = spread ** rng.uniform(-1.0, 1.0) * np.exp(2j * np.pi * rng.random())
            noise = rng.standard_normal(n_t) + 1j * rng.standard_normal(n_t)
            v[m] = scale * (v[rng.integers(m)] + 10.0 ** rng.uniform(np.log10(smallest), np.log10(largest)) * noise)
    return v


@pytest.mark.parametrize("n_t, n_s", [(4, 2), (4, 4), (3, 3), (6, 4)])
def test_zf_block_matches_oracle_on_near_dependent_draws(n_t, n_s):
    # near-dependent users are where the closed-form pre-scores cancel:
    # every draw still gets the oracle's users and beams bit for bit, at
    # 0-150 dB, and no step raises a floating-point warning
    rng = np.random.default_rng(n_t * 10 + n_s)
    for snr_db in (0.0, 30.0, 60.0, 100.0, 150.0):
        params = SystemParams(n_t=n_t, n_s=n_s).with_snr_db(snr_db)
        block = [dict(enumerate(_near_dependent_vectors(rng, 6, n_t))) for _ in range(40)]
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            got = _zf_block(block, params)
        for vectors, out in zip(block, got):
            _assert_same_zf(out, reference_zf_schedule(vectors, params))


def exhaustive_zf_schedule(v, params):
    """Greedy zeroforcing on one draw's vectors v (users, n_t) that scores
    every candidate set exactly, one `_zf_solve` call per set, with the
    block scheduler's arithmetic: (users, unit beams, predicted sum)."""
    norm = row_norms(v)
    conj_units = np.conj(v / np.where(norm == 0, 1.0, norm)[:, None])
    chosen, best, beams = [], 0.0, np.zeros((0, v.shape[1]))
    for k in range(1, min(params.n_s, v.shape[1]) + 1):
        top = None
        for j in sorted(set(np.flatnonzero(norm).tolist()) - set(chosen)):
            members = chosen + [j]
            full, B = scheduler._zf_solve(conj_units[members][None])
            if not full[0]:
                continue
            units = B / np.linalg.norm(B, axis=1, keepdims=True)
            sig = np.abs(np.einsum("cin,cni->ci", v[members][None].conj(), units)) ** 2
            total = ordered_sum(rate(sig, (), np.array([[k / params.P]])).T)[0]
            if top is None or total > top[0]:
                top = (total, j, B[0].T)
        if top is None or top[0] <= best:
            break
        best, j, beams = top
        chosen.append(j)
    return chosen, beams / row_norms(beams)[:, None], best


@pytest.mark.parametrize("n_t, n_s", [(4, 2), (4, 4), (3, 3)])
def test_zf_block_keeps_exact_winner_among_near_ties(n_t, n_s):
    # twins a relative 1e-16 to 1e-13 apart score within the closed form's
    # error of each other: the block still picks the winner that exact
    # scoring of every set picks, with the same beams and predicted sum
    # bit for bit
    rng = np.random.default_rng(n_t * 10 + n_s + 1)
    for snr_db in (0.0, 30.0, 100.0):
        params = SystemParams(n_t=n_t, n_s=n_s).with_snr_db(snr_db)
        stack = np.array([_near_dependent_vectors(rng, 6, n_t, 1e-16, 1e-13, spread=1.0) for _ in range(100)])
        users, beams, predicted = zf_schedule_block(stack, params.n_s, [params.P] * len(stack))
        for d, v in enumerate(stack):
            chosen, expected, best = exhaustive_zf_schedule(v, params)
            k = len(chosen)
            assert users[d, :k].tolist() == chosen and (users[d, k:] == -1).all()
            assert beams[d, :k].tobytes() == expected.tobytes() and predicted[d] == best


@pytest.mark.parametrize("n_t, n_s", [(4, 2), (4, 4), (3, 3)])
def test_reference_zf_schedule_is_a_value_level_oracle_among_near_ties(n_t, n_s):
    # among unit-phase copies a relative 1e-16 to 1e-13 apart the scalar
    # oracle may pick a twin of the exact winner: each step's user copies
    # the one exact scoring of every set picks, its beam is that beam up to
    # phase, and the predicted sums agree to the last few bits
    rng = np.random.default_rng(n_t * 10 + n_s + 2)
    for snr_db in (0.0, 30.0, 100.0):
        params = SystemParams(n_t=n_t, n_s=n_s).with_snr_db(snr_db)
        for _ in range(100):
            v = _near_dependent_vectors(rng, 6, n_t, 1e-16, 1e-13, spread=1.0)
            decision, predicted = reference_zf_schedule(dict(enumerate(v)), params)
            chosen, beams, best = exhaustive_zf_schedule(v, params)
            assert len(decision.users) == len(chosen)
            units = v / np.linalg.norm(v, axis=1, keepdims=True)
            for m, j, beam, exact in zip(decision.users, chosen, decision.beams, beams):
                assert abs(np.vdot(units[m], units[j])) == pytest.approx(1.0, abs=1e-12)
                assert abs(np.vdot(beam, exact)) == pytest.approx(1.0, abs=1e-12)
            assert predicted == pytest.approx(best, rel=1e-12, abs=1e-15)


def test_zf_pseudo_inverts_one_set_per_draw_and_step(monkeypatch):
    # on random continuous vectors the closed-form scores leave one set
    # per running draw and greedy step to the rank test and pseudo-inverse,
    # and step 1 none: every draw's step-1 shortlist is one bounded set
    # with a positive lower bound, so its user is added unsolved.  In draws
    # whose users all copy one direction (times complex scales) step 2
    # drops every candidate as parallel, and only those draws, which stop
    # at one user, solve their step-1 set, after step 2's call
    shapes = []

    def counting(A):
        shapes.append(A.shape[:2])
        return solve(A)

    solve = scheduler._zf_solve
    monkeypatch.setattr(scheduler, "_zf_solve", counting)
    rng = np.random.default_rng(47)
    for snr_db, parallel in ((0.0, 0), (30.0, 0), (30.0, 16)):
        params = SystemParams(n_t=4, n_s=4).with_snr_db(snr_db)
        stack = rng.standard_normal((64, 10, 4)) + 1j * rng.standard_normal((64, 10, 4))
        scales = rng.uniform(0.5, 2.0, (parallel, 10, 1)) * np.exp(2j * np.pi * rng.random((parallel, 10, 1)))
        stack[:parallel] = scales * stack[:parallel, :1]
        shapes.clear()
        users, _, _ = zf_schedule_block(stack, params.n_s, [params.P] * len(stack))
        k = np.count_nonzero(users >= 0, axis=1)
        assert (k[:parallel] == 1).all() and (k[parallel:] >= 2).all() and k.max() == 4
        # step j runs every draw that grew at each step before it
        settled = [(parallel, 1)] if parallel else []
        assert shapes == [(len(k) - parallel, 2), *settled, (np.count_nonzero(k >= 2), 3), (np.count_nonzero(k >= 3), 4)]


def test_zf_score_bounds_hold_the_exact_score():
    # every (chosen set + candidate) set the closed form bounds has its
    # exact score, from `_zf_solve`'s beams, within those bounds, on random
    # and near-dependent sets (perturbations up to 0.1, so that many bounded
    # sets are ill-conditioned) of 1-8 users at 0-150 dB
    rng = np.random.default_rng(48)
    checked = near = 0
    for n_t in (2, 3, 4, 6, 8):
        for k in range(1, n_t + 1):
            for snr_db in (0.0, 60.0, 150.0):
                for dependent in (False, True):
                    raw = np.array([_near_dependent_vectors(rng, 8, n_t, largest=0.1) for _ in range(30)])
                    if not dependent:
                        raw = rng.standard_normal(raw.shape) + 1j * rng.standard_normal(raw.shape)
                    norm = np.linalg.norm(raw, axis=-1)
                    conj_units = np.conj(raw / norm[..., None])
                    if k == 1:  # the empty chosen set of the first step
                        full, B = np.ones(len(raw), dtype=bool), np.zeros((len(raw), n_t, 0), dtype=complex)
                    else:
                        full, B = scheduler._zf_solve(conj_units[:, : k - 1])
                    raw, norm, conj_units = raw[full], norm[full], conj_units[full]
                    noise = np.full(len(raw), k / 10.0 ** (snr_db / 10.0))
                    lo, hi = scheduler._zf_score_bounds(
                        np.swapaxes(B, 1, 2),
                        conj_units[:, : k - 1],
                        conj_units,
                        norm[:, : k - 1] ** 2,
                        norm**2,
                        noise,
                    )
                    for d, j in zip(*np.nonzero(np.isfinite(lo[:, k - 1 :]))):
                        members = list(range(k - 1)) + [k - 1 + j]
                        ok, Bj = scheduler._zf_solve(conj_units[d, members][None])
                        assert ok[0]
                        units = Bj[0] / np.linalg.norm(Bj[0], axis=0)
                        sig = np.abs(np.einsum("in,ni->i", raw[d, members].conj(), units)) ** 2
                        exact = np.sum(np.log1p(sig / noise[d]))
                        assert lo[d, k - 1 + j] <= exact <= hi[d, k - 1 + j]
                        checked += 1
                        near += hi[d, k - 1 + j] - lo[d, k - 1 + j] > 2 * scheduler.ZF_SLACK * k * 1e4  # Gram-inverse diagonal above 100
    assert checked > 15000 and near > 500


def test_zf_step2_bounds_from_the_closed_form_row_hold_the_exact_score():
    # a draw that adds its step-1 user unsolved bounds its step-2 sets from
    # the closed-form pseudo-inverse conj(a) / |a|^2 of the one unit row a:
    # every set those bounds bound has its exact score within them, on
    # random and near-dependent pairs at 0-150 dB
    rng = np.random.default_rng(49)
    checked = 0
    for n_t in (2, 3, 4, 6, 8):
        for snr_db in (0.0, 60.0, 150.0):
            for dependent in (False, True):
                raw = np.array([_near_dependent_vectors(rng, 8, n_t, largest=0.1) for _ in range(30)])
                if not dependent:
                    raw = rng.standard_normal(raw.shape) + 1j * rng.standard_normal(raw.shape)
                norm = row_norms(raw)
                conj_units = np.conj(raw / norm[..., None])
                a = conj_units[:, 0]
                held = (np.conj(a) / np.vecdot(a, a).real[:, None])[:, None]
                noise = np.full(len(raw), 2 / 10.0 ** (snr_db / 10.0))
                lo, hi = scheduler._zf_score_bounds(held, conj_units[:, :1], conj_units, norm[:, :1] ** 2, norm**2, noise)
                for d, j in zip(*np.nonzero(np.isfinite(lo[:, 1:]))):
                    members = [0, 1 + j]
                    ok, B = scheduler._zf_solve(conj_units[d, members][None])
                    assert ok[0]
                    exact = scheduler._zf_exact(raw[d, members][None], B, noise[d : d + 1])[0]
                    assert lo[d, 1 + j] <= exact <= hi[d, 1 + j]
                    checked += 1
    assert checked > 5000


def test_zf_solves_step_one_where_its_bounds_leave_growth_open():
    # at -40 dB a lone user of norm 1e-8 scores 1e-20 and one of norm
    # 3e-161 scores 0, both below the closed form's slack, so step 1
    # cannot tell that either improves on the empty schedule: each is
    # solved exactly there, the first is scheduled and the second is not
    params = SystemParams(n_t=4, n_s=2).with_snr_db(-40.0)
    v = _random_vectors(1, 4, SeedSpec(51))[0]
    zero = np.zeros(4, dtype=complex)
    block = [{0: 1e-8 * v, 1: zero}, {0: zero, 1: 3e-161 * v}, {0: 1e-8 * v}, {0: 3e-161 * v}]
    got = _zf_block(block, params)
    for vectors, out in zip(block, got):
        _assert_same_zf(out, reference_zf_schedule(vectors, params))
    assert [decision.users for decision, _ in got] == [(0,), (), (0,), ()]
    assert got[0][1] > 0.0 and got[1][1] == 0.0


def _counting_zf_solve(monkeypatch):
    """Record the rows of every set `_zf_solve` receives, as bytes."""
    seen = set()
    solve = scheduler._zf_solve

    def counting(A):
        seen.update(tuple(row.tobytes() for row in members) for members in A)
        return solve(A)

    monkeypatch.setattr(scheduler, "_zf_solve", counting)
    return seen


@pytest.mark.parametrize("n_s", [2, 3])
def test_zf_drops_parallel_sets_before_the_rank_test(monkeypatch, n_s):
    # user 0 is each draw's step-1 winner; users 1-3 copy its direction
    # times complex scales, users 4-7 copy it plus an orthogonal
    # perturbation of squared size 1e-22 to 1e-9, users 8-9 are random.
    # No set that grows a chosen set by an exact copy reaches `_zf_solve`;
    # every set with a perturbed copy still does, the rank test keeps or
    # rejects it, and every draw gets the oracle's users and beams
    rng = np.random.default_rng(50 + n_s)
    n_t, n_draws = 4, 40
    raw = rng.standard_normal((n_draws, 10, n_t)) + 1j * rng.standard_normal((n_draws, 10, n_t))
    unit = raw[:, 0] / np.linalg.norm(raw[:, 0], axis=1, keepdims=True)
    raw[:, 0] = 10.0 * unit
    phases = rng.uniform(0.3, 1.0, (n_draws, 8, 1)) * np.exp(2j * np.pi * rng.random((n_draws, 8, 1)))
    raw[:, 1:4] = phases[:, :3] * unit[:, None]
    ortho = raw[:, 4:8] - np.einsum("dn,dun->du", unit.conj(), raw[:, 4:8])[..., None] * unit[:, None]
    ortho /= np.linalg.norm(ortho, axis=-1, keepdims=True)
    size = np.sqrt(10.0 ** rng.uniform(-22.0, -9.0, (n_draws, 4, 1)))
    raw[:, 4:8] = phases[:, 3:7] * (unit[:, None] + size * ortho)
    seen = _counting_zf_solve(monkeypatch)
    params = SystemParams(n_t=n_t, n_s=n_s).with_snr_db(30.0)
    users, beams, predicted = zf_schedule_block(raw, n_s, [params.P] * n_draws)
    norm = row_norms(raw)
    rows = np.conj(raw / norm[..., None])
    for d in range(n_draws):
        k = np.count_nonzero(users[d] >= 0)
        assert users[d, 0] == 0 and k >= 2
        first, second = rows[d, 0].tobytes(), rows[d, users[d, 1]].tobytes()
        for m in range(1, 8):
            assert ((first, rows[d, m].tobytes()) in seen) == (m >= 4)
            assert (first, second, rows[d, m].tobytes()) not in seen or m >= 4
        decision = PrecodedDecision(users=tuple(users[d, :k].tolist()), beams=tuple(beams[d, :k]))
        _assert_same_zf((decision, predicted[d]), reference_zf_schedule(dict(enumerate(raw[d])), params))
    # both sides of the rank test's 1e-10 singular-value rule are reached
    kept = [scheduler._zf_solve(rows[d, [0, m]][None])[0][0] for d in range(n_draws) for m in range(4, 8)]
    assert any(kept) and not all(kept)


def scalar_rate(v, own_beam, other_beams, n_active, params):
    """The rate formula one user at a time, in numpy scalars."""
    sig = np.abs(np.vdot(v, own_beam)) ** 2
    intf = sum(np.abs(np.vdot(v, w)) ** 2 for w in other_beams)
    noise = n_active / params.P
    return float(np.log1p(sig / (noise + intf)))


def reference_realize(decision, sub, params, C=None):
    """Scalar realization: one `scalar_rate` per (scheduled user,
    subcarrier) on the filtered subcarrier channels sub[m], the per-user
    mean over subcarriers and the sum in user order."""
    if isinstance(decision, PrecodedDecision):
        users, beam_of = list(decision.users), dict(zip(decision.users, decision.beams))
    else:
        users, beam_of = decision.assignment.users, {m: C[j] for m, j in decision.assignment.pairs.items()}
    per_user = {}
    for m in users:
        others = [beam_of[l] for l in users if l != m]
        per_user[m] = float(np.mean([scalar_rate(v, beam_of[m], others, len(users), params) for v in sub[m]]))
    return RateReport(per_user=per_user, sum=float(sum(per_user.values())))


def _realize_block(problems, C):
    """RateReport of every (decision, sub, params) problem, from one
    `realize_rates_block` call for the zeroforcing decisions and one for
    the codebook decisions."""
    out = [None] * len(problems)
    for zf in (True, False):
        group = [i for i, (decision, _, _) in enumerate(problems) if isinstance(decision, PrecodedDecision) == zf]
        decisions = [problems[i][0] for i in group]
        users_of = [list(d.users) if zf else d.assignment.users for d in decisions]
        width = max(map(len, users_of), default=0)
        users = np.full((len(group), width), -1)
        beams = np.zeros((len(group), width, C.dim), dtype=complex) if zf else np.full((len(group), width), -1)
        for r, (d, us) in enumerate(zip(decisions, users_of)):
            if us:
                users[r, : len(us)] = us
                beams[r, : len(us)] = list(d.beams) if zf else [d.assignment.pairs[m] for m in us]
        subs = np.array([problems[i][1] for i in group])
        per_user, total = realize_rates_block(users, beams, subs, [problems[i][2].P for i in group], C=None if zf else C)
        for r, (i, us) in enumerate(zip(group, users_of)):
            assert not per_user[r, len(us) :].any()
            out[i] = RateReport(per_user=dict(zip(us, per_user[r, : len(us)].tolist())), sum=float(total[r]))
    return out


@pytest.mark.parametrize("F, n_r", [(1, 1), (4, 2), (12, 1)])
def test_realize_block_matches_scalar_oracle(F, n_r):
    # zeroforcing, codebook and empty decisions of many draws at -20..100
    # dB, at least 5,000 (user, subcarrier) rows, realized in one stacked
    # call per decision kind: every report equals the scalar oracle bit
    # for bit (F = 12 takes numpy's pairwise mean past its 8-term block)
    params = SystemParams(n_t=4, n_r=n_r, n_s=3)
    C = rvq_codebook(4, 3, SeedSpec(44))
    n_draws, n_users = 1500 // F + 40, 6
    H, sub = draw_channel_stack(params, F, 0.8, SeedSpec(45).derive(F), range(n_draws), n_users)
    chans = [UserChannel(H=h, subcarriers=s) for h, s in zip(H, sub)]
    block = effective_block(H, sub)
    subs = block.sub_h_hat.reshape(n_draws, n_users, F, 4)
    h_hat = block.h_hat.reshape(n_draws, n_users, 4)
    rng = np.random.default_rng(46)
    snrs = (-20.0, 0.0, 30.0, 60.0, 100.0)
    problems = []
    for lo in range(0, n_draws, 8):
        p = params.with_snr_db(snrs[(lo // 8) % len(snrs)])
        draws = range(lo, min(lo + 8, n_draws))
        for d, (decision, _) in zip(draws, _zf_block([dict(enumerate(h_hat[d])) for d in draws], p)):
            problems.append((decision, subs[d], p))
            k = int(rng.integers(0, 4))
            users = rng.choice(n_users, k, replace=False).tolist()
            beams = rng.choice(len(C), k, replace=False).tolist()
            problems.append((ScheduleDecision(BeamAssignment(dict(zip(users, beams))), 0.0), subs[d], p))
    problems.append((PrecodedDecision(users=(), beams=()), subs[0], params))
    problems.append((ScheduleDecision(BeamAssignment({}), 0.0), subs[0], params))
    got = _realize_block(problems, C)
    rows = sum(len(r.per_user) for r in got) * F
    assert rows >= 5000
    for report, (decision, sub, p) in zip(got, problems):
        ref = reference_realize(decision, sub, p, C=C)
        assert list(report.per_user.items()) == list(ref.per_user.items())
        assert report.sum == ref.sum
    assert got[-1] == got[-2] == RateReport(per_user={}, sum=0.0)
    assert {len(r.per_user) for r in got} == {0, 1, 2, 3}
    per_user, total = realize_rates_block(np.zeros((0, 0), dtype=int), np.zeros((0, 0), dtype=int), subs[:0], [], C=C)
    assert per_user.shape == (0, 0) and total.shape == (0,)
    # realize_rates is the one-draw case, on the users' UserChannels
    for d in range(0, n_draws, 37):
        channels = dict(enumerate(chans[d * n_users : (d + 1) * n_users]))
        for decision, sub, p in problems[2 * d : 2 * d + 2]:
            assert realize_rates(decision, channels, p, C=C) == reference_realize(decision, sub, p, C=C)
