import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oqn.errors import IterBudgetTooSmall, OutsideBall
from oqn.harness import brute_tr, tr_objective
from oqn.linops import Counter, SymOperator
from oqn.rng import RngStream
from oqn.trsolver import (
    TRBranch,
    TrustRegionSubproblem,
    accel_budget,
    fista,
    fista_plus_sfg,
    residual_of,
    sfg,
    tr_solve,
)

from conftest import random_symmetric


def make_problem(a, b, radius, delta, q=0.01, counter=None):
    op = SymOperator(a, counter or Counter())
    return TrustRegionSubproblem(
        a_op=op, b=np.asarray(b, float), radius=radius, delta=delta, q=q,
        b_bound=2.0 * op.frobenius_norm() + delta)


class TestResidualOf:
    def test_interior_zero(self):
        op = SymOperator(np.eye(2), Counter())
        assert residual_of(op, np.zeros(2), 1.0, np.zeros(2)) == 0.0
        assert op.counter.count == 1

    def test_boundary_multiplier_closed_form(self):
        # KKT: r = (-2, 0) at (1, 0), cone multiple c* = 2 cancels it
        op = SymOperator(np.diag([2.0, 1.0]), Counter())
        res = residual_of(op, np.array([-4.0, 0.0]), 1.0, np.array([1.0, 0.0]))
        assert res == pytest.approx(0.0, abs=1e-14)

    def test_negative_curvature_boundary(self):
        op = SymOperator(np.diag([-1.0, 1.0]), Counter())
        res = residual_of(op, np.zeros(2), 1.0, np.array([1.0, 0.0]))
        assert res == pytest.approx(0.0, abs=1e-14)

    def test_outside_ball_rejected(self):
        op = SymOperator(np.eye(2), Counter())
        with pytest.raises(OutsideBall):
            residual_of(op, np.zeros(2), 1.0, np.array([1.5, 0.0]))

    @given(st.integers(0, 10_000))
    @settings(max_examples=30, deadline=None)
    def test_boundary_value_minimizes_over_cone(self, seed):
        # oracle: scan nonnegative multipliers on a grid
        rng = np.random.default_rng(seed)
        a = random_symmetric(rng, 3)
        b = rng.standard_normal(3)
        x = rng.standard_normal(3)
        x = x / np.linalg.norm(x)  # on the unit sphere
        op = SymOperator(a, Counter())
        res = residual_of(op, b, 1.0, x)
        r = a @ x + b
        grid = np.linspace(0.0, 10.0 + 10.0 * np.linalg.norm(r), 4001)
        best = min(np.linalg.norm(r + c * x) for c in grid)
        assert res <= best + 1e-9


class TestFista:
    def test_fixed_point_at_origin(self):
        op = SymOperator(np.eye(3), Counter())
        out = fista(op, np.zeros(3), 1.0, 1.0, 25, np.zeros(3))
        np.testing.assert_allclose(out, 0.0)
        assert op.counter.count == 25

    def test_scalar_boundary_solution_within_gap_bound(self):
        # f(x) = x^2/2 - 2x on [-1, 1]: constrained minimizer x* = 1
        op = SymOperator(np.array([[1.0]]), Counter())
        out = fista(op, np.array([-2.0]), 1.0, 1.0, 50, np.zeros(1))
        f_star = 0.5 - 2.0
        gap = (0.5 * out[0] ** 2 - 2 * out[0]) - f_star
        assert gap <= 2.0 * 1.0 * 1.0 / 51**2

    def test_interior_minimizer_convergence(self, np_rng):
        a = random_symmetric(np_rng, 5)
        a = a @ a.T + 0.5 * np.eye(5)  # PSD, well conditioned
        b = np_rng.standard_normal(5)
        x_star = np.linalg.solve(a, -b)
        assert np.linalg.norm(x_star) < 10.0
        lg = float(np.linalg.eigvalsh(a)[-1])
        n = 120
        op = SymOperator(a, Counter())
        out = fista(op, b, 10.0, lg, n, np.zeros(5))
        gap = tr_objective(a, b, out) - tr_objective(a, b, x_star)
        assert gap <= 2.0 * lg * float(x_star @ x_star) / (n + 1) ** 2


class TestSfg:
    def test_fixed_point_at_origin(self):
        op = SymOperator(np.eye(3), Counter())
        out = sfg(op, np.zeros(3), 1.0, 1.0, 8, np.zeros(3))
        np.testing.assert_allclose(out, 0.0)
        assert residual_of(op, np.zeros(3), 1.0, out) == 0.0

    def test_budget_too_small(self):
        op = SymOperator(np.eye(2))
        with pytest.raises(IterBudgetTooSmall):
            sfg(op, np.zeros(2), 1.0, 1.0, 1, np.zeros(2))

    def test_scalar_boundary_residual_bound(self):
        a = np.array([[1.0]])
        b = np.array([-2.0])
        start = np.zeros(1)
        f_star = -1.5
        for n in (4, 8, 16):
            op = SymOperator(a, Counter())
            out = sfg(op, b, 1.0, 1.0, n, start)
            gap0 = tr_objective(a, b, start) - f_star
            bound = math.sqrt(50.0 * 1.0 * gap0 / ((n + 1) * (n + 2)))
            assert residual_of(op, b, 1.0, out) <= bound

    def test_random_psd_residual_bounds(self, np_rng):
        # measured residual vs the advertised sqrt(50 lg gap / ((N+1)(N+2)))
        a = random_symmetric(np_rng, 5)
        a = a @ a.T + 0.2 * np.eye(5)
        b = np_rng.standard_normal(5)
        lg = float(np.linalg.eigvalsh(a)[-1])
        d_rad = 1.0
        exact = brute_tr(a, b, d_rad)
        f_star = tr_objective(a, b, exact)
        start = np.zeros(5)
        gap0 = tr_objective(a, b, start) - f_star
        for n in (4, 8, 16, 32):
            op = SymOperator(a, Counter())
            out = sfg(op, b, d_rad, lg, n, start)
            bound = math.sqrt(50.0 * lg * max(gap0, 0.0) / ((n + 1) * (n + 2)))
            assert residual_of(op, b, d_rad, out) <= bound + 1e-12


class TestFistaPlusSfg:
    def test_trivial_instance(self):
        op = SymOperator(np.eye(4), Counter())
        out = fista_plus_sfg(op, np.zeros(4), 1.0, 1e-6, 1.0)
        np.testing.assert_allclose(out, 0.0)

    def test_known_boundary_solution(self):
        a = np.diag([2.0, 1.0])
        op = SymOperator(a, Counter())
        out = fista_plus_sfg(op, np.array([-4.0, 0.0]), 1.0, 1e-4, 2.0)
        np.testing.assert_allclose(out, [1.0, 0.0], atol=1e-3)
        assert residual_of(op, np.array([-4.0, 0.0]), 1.0, out) <= 1e-4

    def test_residual_meets_target_on_random_psd(self, np_rng):
        for _ in range(60):
            d = int(np_rng.integers(2, 21))
            m = random_symmetric(np_rng, d)
            a = m @ m.T + 0.1 * np.eye(d)
            b = np_rng.standard_normal(d)
            lg = float(np.linalg.eigvalsh(a)[-1])
            delta = 10.0 ** np_rng.uniform(-5, -2)
            d_rad = float(np_rng.choice([0.5, 1.0, 3.0]))
            op = SymOperator(a, Counter())
            out = fista_plus_sfg(op, b, d_rad, delta, lg)
            assert residual_of(op, b, d_rad, out) <= delta
            assert op.counter.count == 2 * accel_budget(lg, d_rad, delta) + 1


class TestTrSolve:
    def test_trivial_convex(self):
        p = make_problem(np.eye(2), np.zeros(2), 1.0, 1e-6)
        sol = tr_solve(p, RngStream(0))
        np.testing.assert_allclose(sol.delta_vec, 0.0, atol=1e-8)
        assert sol.branch is TRBranch.CONVEX
        assert sol.residual <= 1e-6

    def test_convex_boundary_instance(self):
        p = make_problem(np.diag([2.0, 1.0]), [-4.0, 0.0], 1.0, 1e-6)
        sol = tr_solve(p, RngStream(1))
        np.testing.assert_allclose(sol.delta_vec, [1.0, 0.0], atol=1e-5)
        assert sol.residual <= 1e-6

    def test_caller_psd_certificate_skips_the_probe(self, np_rng):
        # a nonnegative lam_min_lower gives the probe-certified convex solve
        # bit for bit, without a min_evec matvec or an RNG draw
        for t in range(20):
            d = int(np_rng.integers(2, 21))
            m = random_symmetric(np_rng, d)
            a = m @ m.T + np_rng.uniform(0.05, 1.0) * np.eye(d)
            b = np_rng.standard_normal(d)
            lam_min = float(np.linalg.eigvalsh(a)[0])
            probed = tr_solve(make_problem(a, b, 1.0, 1e-4), RngStream(40 + t))
            assert probed.branch is TRBranch.CONVEX
            p = make_problem(a, b, 1.0, 1e-4)
            p.lam_min_lower = 0.5 * lam_min
            rng = RngStream(40 + t)
            sol = tr_solve(p, rng)
            assert rng.state() == (40 + t, 0)
            assert sol.branch is TRBranch.CONVEX
            assert sol.lambda_hat == 0.5 * lam_min
            np.testing.assert_array_equal(sol.delta_vec, probed.delta_vec)
            assert sol.residual == probed.residual
            assert sol.matvecs_used < probed.matvecs_used

    def test_negative_curvature_instance(self):
        # exact minimizers are the scaled minimum-curvature directions
        p = make_problem(np.diag([-1.0, 1.0]), [0.0, 0.0], 1.0, 1e-6)
        sol = tr_solve(p, RngStream(2))
        assert sol.branch in (TRBranch.REGULARIZED_INTERIOR, TRBranch.REGULARIZED_BOUNDARY)
        assert abs(abs(sol.delta_vec[0]) - 1.0) <= 1e-4
        assert abs(sol.delta_vec[1]) <= 1e-4
        value = tr_objective(np.diag([-1.0, 1.0]), np.zeros(2), sol.delta_vec)
        assert value == pytest.approx(-0.5, abs=1e-6)

    def test_interior_branch_lands_exactly_on_sphere(self, np_rng):
        # hard-case instances: b orthogonal to the bottom eigenspace, so the
        # regularized solve stays interior and the eigenvector step finishes
        seen = 0
        for t in range(20):
            evals = np.concatenate(([-1.0], np_rng.uniform(0.5, 2.0, 5)))
            b = np.concatenate(([0.0], 0.05 * np_rng.standard_normal(5)))
            a = np.diag(evals)
            p = make_problem(a, b, 1.0, 1e-5)
            sol = tr_solve(p, RngStream(300 + t))
            if sol.branch is TRBranch.REGULARIZED_INTERIOR:
                seen += 1
                assert abs(np.linalg.norm(sol.delta_vec) - 1.0) <= 1e-10
        assert seen > 0

    def test_soundness_and_quality_battery(self, np_rng):
        for t in range(120):
            d = int(np_rng.integers(2, 21))
            a = random_symmetric(np_rng, d)
            b = np_rng.standard_normal(d)
            b *= np_rng.uniform(0, 5) / max(np.linalg.norm(b), 1e-12)
            d_rad = float(np_rng.choice([0.1, 1.0, 10.0]))
            delta = float(np_rng.choice([1e-2, 1e-4]))
            p = make_problem(a, b, d_rad, delta)
            sol = tr_solve(p, RngStream(900_000 + t))
            assert np.linalg.norm(sol.delta_vec) <= d_rad + 1e-12
            assert sol.residual <= delta
            exact = brute_tr(a, b, d_rad)
            gap = tr_objective(a, b, sol.delta_vec) - tr_objective(a, b, exact)
            assert gap <= delta * d_rad + 1e-9

    def test_lied_bound_surfaces_certificate_failure(self):
        # the caller's spectral bound is the solver's certificate; a gross
        # underestimate makes the accelerated steps diverge, and the failed
        # residual check must surface after one retry rather than pass
        from oqn.errors import CertificateFailure

        a = np.diag([100.0, 1.0])
        op = SymOperator(a, Counter())
        p = TrustRegionSubproblem(a_op=op, b=np.array([-5.0, 0.0]), radius=1.0,
                                  delta=1e-6, q=0.01, b_bound=0.5)
        with pytest.raises(CertificateFailure):
            tr_solve(p, RngStream(4))

    def test_matvec_cost_bound(self, np_rng):
        # counter-audited against the solver cost structure with C = 4
        for t in range(40):
            d = int(np_rng.integers(2, 16))
            a = random_symmetric(np_rng, d)
            b = np_rng.standard_normal(d)
            d_rad, delta, q = 1.0, 1e-3, 0.01
            counter = Counter()
            p = make_problem(a, b, d_rad, delta, q=q, counter=counter)
            sol = tr_solve(p, RngStream(777_000 + t))
            lg = p.b_bound - min(0.0, sol.lambda_hat)
            budget = 4.0 * (
                math.sqrt(p.b_bound * d_rad / delta)
                * math.log(d * p.b_bound * d_rad / (q**2 * delta))
                + math.sqrt(lg * d_rad / delta)
            )
            assert sol.matvecs_used <= budget
            assert counter.count == sol.matvecs_used
