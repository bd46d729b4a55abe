from itertools import combinations, permutations

import numpy as np
import pytest

from ramimo.channel import (
    SystemParams,
    UserChannel,
    draw_user_channel,
    mrc_effective_channel,
    per_subcarrier_effective_channels,
)
from ramimo.codebook import Codebook, canonical_onb, rvq_codebook
from ramimo.numerics import SeedSpec, sample_complex_gaussian
from ramimo.rates import BeamAssignment, rate_with_beams, sum_rate
from ramimo.scheduler import (
    PrecodedDecision,
    realize_rates,
    schedule_bruteforce,
    schedule_bruteforce_block,
    schedule_greedy,
    zf_decision_for,
    zf_precode,
    zf_schedule,
    zf_schedule_block,
)

E1 = np.array([1.0, 0.0], dtype=complex)
E2 = np.array([0.0, 1.0], dtype=complex)


def reference_enumerator(vectors, C, params):
    """Independent oracle written directly against the definition: loop over
    all subsets and beam tuples, tracking the best sum rate via sum_rate.
    Ties go to the smallest (sorted users, beam tuple) over all set sizes;
    a best rate of 0 schedules nobody."""
    users = sorted(vectors)
    best = (0.0, (), ())
    for k in range(1, params.n_s + 1):
        for S in combinations(users, k):
            for beams in permutations(range(len(C)), k):
                assign = BeamAssignment(dict(zip(S, beams)))
                total = sum_rate(assign, C, vectors, params).sum
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
    params = SystemParams(n_t=2, n_s=2, P=4.0, sigma_sq=1.0)
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
    vectors = _random_vectors(3, 2, SeedSpec(32))
    decision = schedule_bruteforce(vectors, C, params)
    re_eval = sum_rate(decision.assignment, C, vectors, params).sum
    assert decision.predicted_sum_rate == pytest.approx(re_eval, abs=1e-12)


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


def test_zf_of_orthonormal_directions_is_identity():
    params = SystemParams(n_t=2, n_s=2)
    decision = zf_precode([E1, E2], params)
    assert np.allclose(np.abs(decision.beams[0]), [1.0, 0.0], atol=1e-12)
    assert np.allclose(np.abs(decision.beams[1]), [0.0, 1.0], atol=1e-12)


def test_zf_nulls_cross_directions():
    params = SystemParams(n_t=4, n_s=2)
    rng_seed = SeedSpec(37)
    dirs = [
        sample_complex_gaussian(4, rng_seed.derive("d", i)) for i in range(3)
    ]
    dirs = [d / np.linalg.norm(d) for d in dirs]
    decision = zf_precode(dirs, params)
    for i, b in enumerate(decision.beams):
        assert np.linalg.norm(b) == pytest.approx(1.0, abs=1e-12)
        for j, d in enumerate(dirs):
            if i != j:
                assert abs(np.vdot(d, b)) <= 1e-10


def test_zf_rejects_dependent_directions():
    params = SystemParams(n_t=2, n_s=2)
    with pytest.raises(ValueError, match="depend"):
        zf_precode([E1, E1], params)


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
            subs = {m: per_subcarrier_effective_channels(ch, params) for m, ch in channels.items()}
            expected = np.mean(
                [sum_rate(decision.assignment, C, {m: e[f].h_hat for m, e in subs.items()}, params).sum for f in range(F)]
            )
            assert realized.sum == pytest.approx(expected, abs=1e-12)


def test_realize_orthogonal_plugin():
    params = SystemParams(n_t=2, n_r=1, n_s=2, P=4.0, sigma_sq=1.0)
    C = canonical_onb(2)
    channels = {0: UserChannel(H=E1[None, :].conj()), 1: UserChannel(H=E2[None, :].conj())}
    decision = schedule_bruteforce({0: E1, 1: E2}, C, params)
    realized = realize_rates(decision, channels, params, C=C)
    expected = 2 * np.log(1 + params.P / (2 * params.sigma_sq))
    assert realized.sum == pytest.approx(expected, abs=1e-12)


def test_zf_quantized_cdi_realizes_below_prediction():
    # quantized directions leave residual interference that the prediction
    # (which assumes perfect nulling) does not see
    params = SystemParams(n_t=4, n_r=1, n_s=2, P=100.0, sigma_sq=1.0)
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
                / (params.sigma_sq * 2 / params.P)
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


@pytest.mark.parametrize("block", [None, 5])
def test_brute_block_matches_scalar_oracle(monkeypatch, block):
    # one stacked call, every problem with its own noise term and n_s, and
    # candidates scored in passes of `block` (default or tiny), matches the
    # enumeration oracle's winner, tie-break and predicted rate exactly: on
    # codebooks of unit vectors (duplicated codewords included) the oracle's
    # rates are bit-identical to the scheduler's, so exact ties agree too
    import ramimo.scheduler as sched

    if block is not None:
        monkeypatch.setattr(sched, "_BRUTE_BLOCK", block)
    for n_t in (2, 3, 4):
        onb = canonical_onb(n_t).vectors
        problems = _brute_problems(n_t, 44 + n_t)
        for C in (canonical_onb(n_t), Codebook(np.vstack([onb, onb[::-1][:2]]), kind="dup")):
            # saturated powers overflow to inf, and inf / inf candidates score NaN
            with np.errstate(over="ignore", invalid="ignore"):
                got = schedule_bruteforce_block([v for v, _ in problems], C, [p for _, p in problems])
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
    assert schedule_bruteforce_block([], canonical_onb(2), []) == []


def _reference_zf_beams(dirs):
    """Unit pseudo-inverse columns of one direction set, None when the
    directions are linearly dependent (the arithmetic of zf_precode,
    written out so the oracle shares no code with the scheduler)."""
    A = np.array([np.conj(d) for d in dirs])
    if np.linalg.matrix_rank(A, tol=1e-10) < len(dirs):
        return None
    B = np.linalg.pinv(A)
    return tuple(B[:, i] / np.linalg.norm(B[:, i]) for i in range(len(dirs)))


def reference_zf_schedule(vectors, params):
    """Scalar greedy zeroforcing oracle: one pseudo-inverse and one rate per
    (step, candidate user), the winner the first strict maximum."""
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
        got = zf_schedule_block(block, params)
        assert len(got) == len(block)
        for vectors, out in zip(block, got):
            expected = reference_zf_schedule(vectors, params)
            _assert_same_zf(out, expected)
            _assert_same_zf(zf_schedule(vectors, params), expected)
        assert got[-2] == (PrecodedDecision(users=(), beams=()), 0.0)
        assert got[-1][0].users == (2,)
        assert len({len(decision.users) for decision, _ in got}) >= min(n_s, 2) + 1
    assert zf_schedule_block([], SystemParams(n_t=n_t, n_s=n_s)) == []


def test_zf_stops_when_no_candidate_improves():
    # at -40 dB the predicted rates of 3e-161-scaled vectors underflow to
    # exactly 0, which does not improve on the empty schedule's 0
    params = SystemParams(n_t=4, n_s=2).with_snr_db(-40.0)
    block = [{m: 3e-161 * v for m, v in _random_vectors(5, 4, SeedSpec(43).derive(i)).items()} for i in range(4)]
    for vectors, out in zip(block, zf_schedule_block(block, params)):
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
