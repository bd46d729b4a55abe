import numpy as np
import pytest

from ramimo.channel import SystemParams, UserChannel
from ramimo.codebook import canonical_onb
from ramimo.rates import BeamAssignment, rate_with_beams, rates_with_beams
from ramimo.scheduler import ScheduleDecision, realize_rates, realize_rates_block

E1 = np.array([1.0, 0.0], dtype=complex)
E2 = np.array([0.0, 1.0], dtype=complex)


def test_assignment_rejects_shared_beam():
    with pytest.raises(ValueError):
        BeamAssignment({0: 1, 1: 1})


def test_single_user_plugin():
    # |S|=1, |<h,w>|^2 = 1, P = 1  ->  log 2
    params = SystemParams(n_t=2, n_s=1, P=1.0)
    r = rate_with_beams(E1, canonical_onb(2)[0], [], 1, params)
    assert r == pytest.approx(np.log(2.0), abs=1e-12)


def test_orthogonal_channel_zero_rate():
    params = SystemParams(n_t=2, n_s=1)
    r = rate_with_beams(E2, canonical_onb(2)[0], [], 1, params)
    assert r == 0.0


def test_two_user_hand_evaluation():
    # n_t=2, ONB beams, h = e1, S = {0, 1}, identity assignment, P = 2:
    # noise term |S| / P = 1, zero cross term -> log 2
    params = SystemParams(n_t=2, n_s=2, P=2.0)
    C = canonical_onb(2)
    r = rate_with_beams(E1, C[0], [C[1]], 2, params)
    assert r == pytest.approx(np.log(2.0), abs=1e-12)


def test_sum_rate_empty():
    # nobody scheduled: every position and the sum rate are 0.0
    params = SystemParams(n_t=2)
    sub_h_hat = np.zeros((1, 2, 1, 2), dtype=complex)
    per_user, total = realize_rates_block([[-1, -1]], [[-1, -1]], sub_h_hat, [params], canonical_onb(2))
    assert total.tolist() == [0.0]
    assert per_user.tolist() == [[0.0, 0.0]]


def test_sum_rate_single_equals_user_rate():
    params = SystemParams(n_t=2, n_s=1, P=3.0)
    v = (E1 + E2) / np.sqrt(2)
    C = canonical_onb(2)
    per_user, total = realize_rates_block([[0]], [[1]], v[None, None, None, :], [params], C)
    assert total[0] == pytest.approx(rate_with_beams(v, C[1], [], 1, params))


def test_sum_rate_orthogonal_pair_closed_form():
    params = SystemParams(n_t=2, n_s=2, P=4.0)
    vectors = np.array([[E1, E2]])[:, :, None, :]
    per_user, total = realize_rates_block([[0, 1]], [[0, 1]], vectors, [params], canonical_onb(2))
    expected = 2 * np.log(1 + params.P / 2)
    assert total[0] == pytest.approx(expected, abs=1e-12)


def test_global_phase_invariance():
    params = SystemParams(n_t=2, n_s=2, P=2.0)
    rng = np.random.default_rng(2)
    C = canonical_onb(2)
    for _ in range(50):
        v = rng.standard_normal(2) + 1j * rng.standard_normal(2)
        alpha = rng.uniform(0, 2 * np.pi)
        r1 = rate_with_beams(v, C[0], [C[1]], 2, params)
        r2 = rate_with_beams(np.exp(1j * alpha) * v, C[0], [C[1]], 2, params)
        assert r1 == pytest.approx(r2, abs=1e-12)


def test_rate_decreases_with_added_interferer():
    params = SystemParams(n_t=4, n_s=3)
    C = canonical_onb(4)
    rng = np.random.default_rng(3)
    for _ in range(100):
        v = rng.standard_normal(4) + 1j * rng.standard_normal(4)
        r_small = rate_with_beams(v, C[0], [C[1]], 2, params)
        r_big = rate_with_beams(v, C[0], [C[1], C[2]], 3, params)
        assert r_big <= r_small + 1e-12


def _averaged_rate(assign, C, subcarrier_vectors, m, params):
    """User m's rate realized on a channel whose subcarriers have the given
    single-antenna effective vectors (H_f = v_f^H)."""
    rows = np.array([np.conj(v)[None, :] for v in subcarrier_vectors])
    uc = UserChannel(H=rows.mean(axis=0), subcarriers=rows)
    return realize_rates(ScheduleDecision(assign, 0.0), {m: uc}, params, C=C).per_user[m]


def test_averaged_rate_single_subcarrier():
    params = SystemParams(n_t=2, n_s=1)
    assign = BeamAssignment({0: 0})
    C = canonical_onb(2)
    assert _averaged_rate(assign, C, [E1], 0, params) == pytest.approx(
        rate_with_beams(E1, C[0], [], 1, params)
    )


def test_averaged_rate_identical_subcarriers():
    params = SystemParams(n_t=2, n_s=1)
    assign = BeamAssignment({0: 0})
    C = canonical_onb(2)
    assert _averaged_rate(assign, C, [E1, E1, E1], 0, params) == pytest.approx(
        rate_with_beams(E1, C[0], [], 1, params)
    )


def test_averaged_rate_mean_of_rate_and_zero():
    params = SystemParams(n_t=2, n_s=1, P=1.0)
    assign = BeamAssignment({0: 0})
    C = canonical_onb(2)
    r = rate_with_beams(E1, C[0], [], 1, params)
    avg = _averaged_rate(assign, C, [E1, E2], 0, params)
    assert avg == pytest.approx(r / 2.0, abs=1e-12)


def scalar_rate(v, own_beam, other_beams, n_active, params):
    """The rate formula one user at a time, in numpy scalars (the oracle of
    the stacked kernel)."""
    sig = np.abs(np.vdot(v, own_beam)) ** 2
    intf = sum(np.abs(np.vdot(v, w)) ** 2 for w in other_beams)
    noise = n_active / params.P
    return float(np.log1p(sig / (noise + intf)))


def test_rates_with_beams_matches_scalar_oracle():
    # 6,000 rows with 0..4 beams, zero-padded to 4, every own position and
    # SNRs -20..100 dB: each stacked rate equals the scalar formula bit for
    # bit, so a 1-in-1,000 slip in squaring or summing shows
    rng = np.random.default_rng(47)
    n, width, n_t = 6000, 4, 4
    v = rng.standard_normal((n, n_t)) + 1j * rng.standard_normal((n, n_t))
    v[:100] *= 1e-40
    beams = rng.standard_normal((n, width, n_t)) + 1j * rng.standard_normal((n, width, n_t))
    beams /= np.linalg.norm(beams, axis=-1, keepdims=True)
    k = rng.integers(1, width + 1, n)
    beams[np.arange(width) >= k[:, None]] = 0.0
    own = rng.integers(0, k)
    params = [SystemParams(n_t=n_t, n_s=n_t).with_snr_db(snr) for snr in rng.choice([-20.0, 0.0, 30.0, 100.0], n)]
    noise = np.array([kk / p.P for p, kk in zip(params, k.tolist())])
    got = rates_with_beams(v, beams, own, noise)
    assert got.shape == (n,)
    for r in range(n):
        others = [beams[r, j] for j in range(k[r]) if j != own[r]]
        ref = scalar_rate(v[r], beams[r, own[r]], others, k[r], params[r])
        assert got[r] == ref
        if r % 10 == 0:
            assert rate_with_beams(v[r], beams[r, own[r]], others, k[r], params[r]) == ref
    # no beams at all: rate 0
    assert rates_with_beams(v[:2], np.zeros((2, 0, n_t), dtype=complex), 0, 1.0).tolist() == [0.0, 0.0]


def test_rate_formula_has_one_home():
    # log1p of a rate is taken only in the kernel `rates.rate` and in the
    # gain search's in-place `excess`, which adds in the kernel's order;
    # `feedback.lemma1_rhs` takes it of Lemma 1's closed-form bound, not
    # of a rate
    import ast
    from pathlib import Path

    import ramimo

    allowed = {("rates.py", "rate"), ("feedback.py", "excess"), ("feedback.py", "lemma1_rhs")}
    found = []

    class Visitor(ast.NodeVisitor):
        def __init__(self, module):
            self.module, self.stack = module, ["<module>"]

        def visit_FunctionDef(self, node):
            self.stack.append(node.name)
            self.generic_visit(node)
            self.stack.pop()

        def visit_Attribute(self, node):
            self.check(node.attr, node)
            self.generic_visit(node)

        def visit_Name(self, node):
            self.check(node.id, node)

        def check(self, name, node):
            if name == "log1p" and (self.module, self.stack[-1]) not in allowed:
                found.append(f"{self.module}:{node.lineno} in {self.stack[-1]}")

    for module in ("rates.py", "feedback.py", "scheduler.py"):
        Visitor(module).visit(ast.parse((Path(ramimo.__file__).parent / module).read_text()))
    assert found == []
