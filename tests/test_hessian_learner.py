import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oqn.eig import SepCase, sep
from oqn.errors import NonPositiveRadius
from oqn.hessian_learner import (
    LearnerState,
    QuadLoss,
    default_rho,
    learner_step,
    loss,
    loss_gradient,
)
from oqn.linops import Counter, SymOperator
from oqn.rng import RngStream

from conftest import random_symmetric


def e(i, d):
    v = np.zeros(d)
    v[i] = 1.0
    return v


class TestLoss:
    def test_zero_action_unit_pair(self):
        b_op = SymOperator(np.zeros((2, 2)), Counter())
        assert loss(b_op, QuadLoss(e(0, 2), e(0, 2))) == pytest.approx(1.0)
        assert b_op.counter.count == 1

    def test_exact_fit_is_zero(self, np_rng):
        b = random_symmetric(np_rng, 4)
        s = np_rng.standard_normal(4)
        q = QuadLoss(b @ s, s)
        assert loss(SymOperator(b), q) == pytest.approx(0.0, abs=1e-20)
        np.testing.assert_allclose(loss_gradient(SymOperator(b), q), 0.0, atol=1e-12)

    def test_matches_dense_computation(self, np_rng):
        b = random_symmetric(np_rng, 5)
        y, s = np_rng.standard_normal(5), np_rng.standard_normal(5)
        expected = float(np.sum((y - b @ s) ** 2))
        assert loss(SymOperator(b), QuadLoss(y, s)) == pytest.approx(expected, rel=1e-13)


class TestLossGradient:
    def test_symbolic_rank_two_case(self):
        # B = 0, y = e1, s = e2: gradient is -(e1 e2' + e2 e1')
        b_op = SymOperator(np.zeros((2, 2)), Counter())
        g = loss_gradient(b_op, QuadLoss(e(0, 2), e(1, 2)))
        np.testing.assert_allclose(g, -np.array([[0.0, 1.0], [1.0, 0.0]]), atol=1e-15)

    @given(st.integers(0, 10_000))
    @settings(max_examples=30, deadline=None)
    def test_matches_symmetric_finite_differences(self, seed):
        # oracle: central differences along symmetric coordinate directions
        rng = np.random.default_rng(seed)
        d = 4
        b = random_symmetric(rng, d)
        q = QuadLoss(rng.standard_normal(d), rng.standard_normal(d))
        g = loss_gradient(SymOperator(b), q)
        h = 1e-6

        def ell(mat):
            return float(np.sum((q.y - mat @ q.s) ** 2))

        for i in range(d):
            for j in range(i, d):
                direction = np.zeros((d, d))
                direction[i, j] = direction[j, i] = 1.0
                fd = (ell(b + h * direction) - ell(b - h * direction)) / (2 * h)
                assert fd == pytest.approx(float(np.vdot(g, direction)), abs=1e-5)


class TestDefaultRho:
    @pytest.mark.parametrize("radius,expected", [(1.0, 1 / 16), (0.5, 0.25), (2.0, 1 / 64)])
    def test_values(self, radius, expected):
        assert default_rho(radius) == pytest.approx(expected)

    def test_rejects_nonpositive(self):
        with pytest.raises(NonPositiveRadius):
            default_rho(0.0)


class TestLearnerStep:
    def test_zero_direction_no_motion(self):
        state = LearnerState.fresh(3, 1.0, default_rho(1.0), 0.01)
        pair = QuadLoss(np.array([1.0, 0.0, 0.0]), np.zeros(3))
        new, audit = learner_step(state, pair, RngStream(0))
        np.testing.assert_allclose(new.w_mat, 0.0)
        np.testing.assert_allclose(new.b_mat, 0.0)
        assert audit.surrogate_grad_norm == 0.0

    def test_hand_worked_rank_one_update(self):
        # W = 0, y = s = e1, rho = 1/16: surrogate gradient -2 e1 e1',
        # step lands inside the Frobenius ball, no scaling
        state = LearnerState.fresh(2, 1.0, 1.0 / 16.0, 0.01)
        new, audit = learner_step(state, QuadLoss(e(0, 2), e(0, 2)), RngStream(1))
        expected = np.zeros((2, 2))
        expected[0, 0] = 1.0 / 8.0
        np.testing.assert_allclose(new.w_mat, expected, atol=1e-15)
        assert audit.gamma == 0.0
        assert audit.case is SepCase.INSIDE_DOUBLED
        assert audit.loss == pytest.approx(1.0)

    def test_projection_scales_by_half_exactly(self):
        # engineer |W - rho G| = 2 sqrt(d) L1 so the projection halves it
        d, l1, rho = 2, 1.0, 1.0 / 16.0
        c = np.sqrt(d) * l1 / rho  # G = -2c e1e1', |rho G| = 2 sqrt(d) L1
        state = LearnerState.fresh(d, l1, rho, 0.01)
        pair = QuadLoss(c * e(0, d), e(0, d))
        new, _ = learner_step(state, pair, RngStream(2))
        expected = np.zeros((d, d))
        expected[0, 0] = np.sqrt(d) * l1
        np.testing.assert_allclose(new.w_mat, expected, rtol=1e-13)

    def test_separated_round_plays_one_scaled_operator(self):
        # same round as above: |W|_op = sqrt(2) L1 > L1, so the oracle
        # separates and B = W / gamma gets its own operator
        d, l1, rho = 2, 1.0, 1.0 / 16.0
        state = LearnerState.fresh(d, l1, rho, 0.01)
        pair = QuadLoss(np.sqrt(d) * l1 / rho * e(0, d), e(0, d))
        new, _ = learner_step(state, pair, RngStream(2))
        assert new.gamma > 1.0
        assert new.b_op.dense() is new.b_mat
        assert new.b_fro == np.linalg.norm(new.b_mat)
        np.testing.assert_allclose(new.b_mat, new.w_mat / new.gamma, rtol=1e-15)

    def test_frobenius_feasibility_along_run(self, np_rng):
        d, l1 = 5, 1.3
        state = LearnerState.fresh(d, l1, default_rho(1.0), 0.02)
        stream = RngStream(7)
        for _ in range(80):
            s = np_rng.standard_normal(d)
            s /= max(np.linalg.norm(s), 1e-12)
            pair = QuadLoss(np_rng.standard_normal(d), s)
            state, _ = learner_step(state, pair, stream)
            assert np.linalg.norm(state.w_mat) <= np.sqrt(d) * l1 + 1e-9
            # played action stays inside the doubled operator-norm ball
            assert np.linalg.norm(state.b_mat, ord=2) <= 2 * l1 + 1e-9

    def test_surrogate_dominates_true_regret(self, np_rng):
        # comparator inequality behind the dynamic-regret ledger
        d, l1 = 4, 1.0
        stream = RngStream(11)
        for t in range(25):
            w = random_symmetric(np_rng, d, scale=2.0)
            sep_res = sep(SymOperator(w, Counter()), l1, 0.01, stream)
            if sep_res.case is SepCase.INSIDE_DOUBLED:
                b = w
            else:
                b = w / sep_res.gamma
            y, s = np_rng.standard_normal(d), np_rng.standard_normal(d)
            s /= max(np.linalg.norm(s), 1e-12)
            r = y - b @ s
            grad = -np.outer(r, s) - np.outer(s, r)
            if sep_res.case is SepCase.SEPARATED:
                tilt = max(0.0, -float(np.vdot(grad, b)))
                g_tilde = grad + tilt * sep_res.s_mat
            else:
                g_tilde = grad
            # any comparator inside the operator-norm ball
            h = random_symmetric(np_rng, d)
            h *= l1 / max(np.linalg.norm(h, ord=2), 1e-12) * np_rng.uniform(0, 1)
            lhs = float(np.vdot(grad, b - h))
            rhs = float(np.vdot(g_tilde, w - h))
            assert lhs <= rhs + 1e-8

    def test_nuclear_norm_self_bound(self, np_rng):
        d_rad = 1.0
        for _ in range(1000):
            d = int(np_rng.integers(2, 9))
            b = random_symmetric(np_rng, d)
            s = np_rng.standard_normal(d)
            s *= np_rng.uniform(0, d_rad) / max(np.linalg.norm(s), 1e-12)
            y = np_rng.standard_normal(d)
            q = QuadLoss(y, s)
            g = loss_gradient(SymOperator(b), q)
            nuclear = float(np.sum(np.linalg.svd(g, compute_uv=False)))
            assert nuclear <= 2.0 * d_rad * np.sqrt(loss(SymOperator(b), q)) + 1e-9
