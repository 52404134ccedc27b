import dataclasses
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oqn import trsolver
from oqn.errors import InvalidArgument
from oqn.harness import brute_tr, tr_objective
from oqn.eig import MinEvecCase, min_evec, tridiagonal_eigh
from oqn.linops import Counter, SymOperator
from oqn.rng import RngStream
from oqn.trsolver import (
    EARLY_EXIT_RTOL,
    TRBranch,
    TrustRegionSubproblem,
    accel_budget,
    fista,
    fista_plus_sfg,
    fista_probe,
    krylov_minimizer,
    project_ball,
    residual_of,
    sfg,
    tr_solve,
)
from oqn.verify import hard_case_b, random_symmetric


def assert_certificate_is_fresh(a, b, radius, sol):
    """The solve's residual and its product A delta_vec are, bit for bit,
    the ones a fresh operator over ``a`` computes at the answer."""
    fresh = SymOperator(a, Counter())
    assert sol.residual == residual_of(fresh, b, radius, sol.delta_vec)
    assert sol.a_delta.tobytes() == fresh.apply(sol.delta_vec).tobytes()
    assert fresh.counter.count == 2


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
        with pytest.raises(InvalidArgument, match="exceeds radius"):
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
        with pytest.raises(InvalidArgument, match="needs two prior iterates"):
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
        out = fista_plus_sfg(op, np.zeros(4), 1.0, 1.0, accel_budget(1.0, 1.0, 1e-6))
        np.testing.assert_allclose(out, 0.0)

    def test_known_boundary_solution(self):
        a = np.diag([2.0, 1.0])
        op = SymOperator(a, Counter())
        out = fista_plus_sfg(op, np.array([-4.0, 0.0]), 1.0, 2.0, accel_budget(2.0, 1.0, 1e-4))
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
            out = fista_plus_sfg(op, b, d_rad, lg, accel_budget(lg, d_rad, delta))
            assert residual_of(op, b, d_rad, out) <= delta
            assert op.counter.count == 2 * accel_budget(lg, d_rad, delta) + 1


class TestEarlyExit:
    """The convex branch's warm-started probe and its fixed-budget fallback."""

    @staticmethod
    def reference_probe(a, b, radius, lg, n_iters, start, tol, restart=True):
        """The probe's method written plainly: A applied at every momentum
        point, the residual read with residual_of."""
        op = SymOperator(a, Counter())
        x = project_ball(np.asarray(start, dtype=float), radius)
        if residual_of(op, b, radius, x) <= tol:
            return x, 0
        y, t = x, 1.0
        for k in range(1, n_iters + 1):
            x_next = project_ball(y - (a @ y + b) / lg, radius)
            if residual_of(op, b, radius, x_next) <= tol:
                return x_next, k
            if restart and (y - x_next) @ (x_next - x) > 0.0:
                t = 1.0
            t_next = 0.5 * (1.0 + math.sqrt(1.0 + 4.0 * t * t))
            y = x_next + ((t - 1.0) / t_next) * (x_next - x)
            x, t = x_next, t_next
        return None, n_iters

    def test_probe_iterates_are_restarted_fista_iterates(self, np_rng):
        # A at the momentum point comes from linearity, so the probe walks
        # the plainly written path up to rounding, restarts included, and
        # stops at the first certified iterate
        restarted = 0
        for _ in range(10):
            d = int(np_rng.integers(2, 11))
            m = random_symmetric(np_rng, d)
            a = m @ m.T + 0.5 * np.eye(d)
            b = np_rng.standard_normal(d)
            lg = float(np.linalg.eigvalsh(a)[-1])
            start = 0.3 * np_rng.standard_normal(d)
            op = SymOperator(a, Counter())
            x, k, _, ax = fista_probe(op, b, 1.0, lg, 500, start, 1e-10)
            assert x is not None and k >= 1
            assert op.counter.count == k + 1
            assert ax.tobytes() == SymOperator(a, Counter()).apply(x).tobytes()
            ref, k_ref = self.reference_probe(a, b, 1.0, lg, 500, start, 1e-10)
            assert k == k_ref
            np.testing.assert_allclose(x, ref, rtol=0, atol=1e-12)
            assert residual_of(op, b, 1.0, x) <= 1e-10
            plain = fista(SymOperator(a, Counter()), b, 1.0, lg, k,
                          project_ball(start, 1.0))
            restarted += float(np.max(np.abs(plain - x))) > 1e-9
        assert restarted > 0  # some paths left plain FISTA's

    def test_start_product_saves_the_first_matvec_bit_for_bit(self, np_rng):
        # a_start = A x_start stands in for the probe's first matvec: the
        # same (x, k, residual, A x) bits for one counted matvec less.  A start
        # outside the ball is projected first, so its a_start is ignored.
        for inside in (True, False) * 5:
            d = int(np_rng.integers(2, 11))
            m = random_symmetric(np_rng, d)
            a = m @ m.T + 0.5 * np.eye(d)
            b = np_rng.standard_normal(d)
            lg = float(np.linalg.eigvalsh(a)[-1])
            u = np_rng.standard_normal(d)
            start = (0.9 if inside else 2.0) * u / np.linalg.norm(u)
            a_start = SymOperator(a, Counter()).apply(start)
            plain_op, reused_op = SymOperator(a, Counter()), SymOperator(a, Counter())
            x, k, res, ax = fista_probe(plain_op, b, 1.0, lg, 500, start, 1e-10)
            x2, k2, res2, ax2 = fista_probe(reused_op, b, 1.0, lg, 500, start, 1e-10, a_start)
            assert x is not None
            assert (x2.tobytes(), k2, res2, ax2.tobytes()) == (x.tobytes(), k, res, ax.tobytes())
            assert reused_op.counter.count == plain_op.counter.count - inside

    def test_start_a_rounding_outside_the_ball_keeps_a_start(self, np_rng):
        # project_ball can leave |x| a rounding above D; residual_of accepts
        # such a point, so the probe starts there as is and takes a_start in
        # place of its first matvec
        d = 7
        m = random_symmetric(np_rng, d)
        a = m @ m.T + 0.5 * np.eye(d)
        b = np_rng.standard_normal(d)
        lg = float(np.linalg.eigvalsh(a)[-1])
        for _ in range(100):
            start = project_ball(3.0 * np_rng.standard_normal(d), 1.0)
            if math.sqrt(start @ start) > 1.0:
                break
        assert math.sqrt(start @ start) > 1.0 and project_ball(start, 1.0) is not start
        a_start = SymOperator(a, Counter()).apply(start)
        op = SymOperator(a, Counter())
        x, k, res, ax = fista_probe(op, b, 1.0, lg, 50, start, math.inf, a_start)
        assert x is start and k == 0 and ax is a_start
        assert op.counter.count == 0
        assert res == residual_of(SymOperator(a, Counter()), b, 1.0, start)

    def test_start_exit_reads_the_residual_of_its_point(self, np_rng):
        # the probe reuses the norm it took of its start for the residual
        # there: a k = 0 exit reports residual_of's bits at the point it
        # returns, for one matvec, or none from a_start when the start is
        # x_start itself, on the sphere, a rounding outside it, or projected
        d = 7
        m = random_symmetric(np_rng, d)
        a = m @ m.T + 0.5 * np.eye(d)
        lg = float(np.linalg.eigvalsh(a)[-1])
        on_sphere = rounding_out = None
        for _ in range(200):
            start = project_ball(3.0 * np_rng.standard_normal(d), 1.0)
            norm = math.sqrt(start @ start)
            if norm == 1.0:
                on_sphere = start
            elif norm > 1.0:
                rounding_out = start
        assert on_sphere is not None and rounding_out is not None
        u = np_rng.standard_normal(d)
        outside = 2.0 * u / np.linalg.norm(u)
        for start, kept in ((on_sphere, True), (rounding_out, True), (outside, False)):
            # b pulls outward at the start, so the residual there is the
            # boundary one, which a norm read as interior would not give
            unit = start / np.linalg.norm(start)
            b = -(lg + 1.0) * unit + 0.1 * np_rng.standard_normal(d)
            a_start = SymOperator(a, Counter()).apply(start)
            for given in (None, a_start):
                op = SymOperator(a, Counter())
                x, k, res, ax = fista_probe(op, b, 1.0, lg, 50, start, math.inf, given)
                assert k == 0 and (x is start) == kept
                if not kept:
                    assert x.tobytes() == project_ball(start, 1.0).tobytes()
                assert op.counter.count == int(given is None or not kept)
                ref_res, ref_ax = residual_of(SymOperator(a, Counter()), b, 1.0, x,
                                              with_product=True)
                assert (ref_ax + b) @ x < 0.0
                assert res == ref_res
                assert ax.tobytes() == (a_start if given is not None and kept
                                        else ref_ax).tobytes()

    def test_step_estimate_outside_its_range_is_the_fixed_step(self, np_rng):
        # l_start is used only in (0, lg); elsewhere the probe steps at 1/lg
        # bit for bit and never backtracks
        d = 6
        m = random_symmetric(np_rng, d)
        a = m @ m.T + 0.2 * np.eye(d)
        b = np_rng.standard_normal(d)
        lg = float(np.linalg.eigvalsh(a)[-1])
        ref = fista_probe(SymOperator(a, Counter()), b, 1.0, lg, 500, np.zeros(d), 1e-10)
        for l_start in (None, 0.0, -1.0, lg, 2.0 * lg):
            got = fista_probe(SymOperator(a, Counter()), b, 1.0, lg, 500, np.zeros(d),
                              1e-10, None, l_start)
            assert (got[0].tobytes(), got[1:3]) == (ref[0].tobytes(), ref[1:3])

    def test_restart_certifies_where_plain_fista_declines(self):
        # a PSD-shifted instance (lambda_min = 0.1 before scaling) with a
        # large ball and delta = 1e-4, whose solution is interior: plain
        # FISTA does not reach sqrt(eps) |b| within N, the restarted probe
        # does in under N / 4
        rng = np.random.default_rng(1)
        d, radius, delta = 10, 10.0, 1e-4
        m = rng.uniform(-1.0, 1.0, size=(d, d))
        a = np.tril(m) + np.tril(m, -1).T
        a += (0.1 - np.linalg.eigvalsh(a)[0]) * np.eye(d)
        a *= math.sqrt(d) / np.linalg.norm(a)
        b = rng.standard_normal(d)
        b *= 2.0 / np.linalg.norm(b)
        lg = 2.0 * float(np.linalg.norm(a))
        n = accel_budget(lg, radius, delta)
        tol = EARLY_EXIT_RTOL * min(delta, float(np.linalg.norm(b)))
        x, _ = self.reference_probe(a, b, radius, lg, n, np.zeros(d), tol, restart=False)
        assert x is None
        p = TrustRegionSubproblem(a_op=SymOperator(a, Counter()), b=b, radius=radius,
                                  delta=delta, q=0.01, b_bound=lg, lam_min_lower=0.0)
        sol = tr_solve(p, RngStream(0))
        assert sol.early_exit and sol.n_accel < n / 4
        assert sol.matvecs_used == sol.n_accel + 1
        assert sol.residual <= tol

    def test_certified_solve_is_cheaper_and_tighter(self, np_rng):
        for t in range(30):
            d = int(np_rng.integers(2, 21))
            m = random_symmetric(np_rng, d)
            shift = np_rng.uniform(0.2, 1.0)
            a = m @ m.T / d + shift * np.eye(d)
            b = np_rng.standard_normal(d)
            delta = float(np_rng.choice([1e-2, 1e-4]))
            p = TrustRegionSubproblem(
                a_op=SymOperator(a, Counter()), b=b, radius=1.0, delta=delta, q=0.01,
                b_bound=float(np.linalg.eigvalsh(a)[-1]), lam_min_lower=shift)
            sol = tr_solve(p, RngStream(t))
            n = accel_budget(max(p.b_bound, delta), 1.0, delta)
            assert sol.early_exit and sol.branch is TRBranch.CONVEX
            assert sol.residual <= EARLY_EXIT_RTOL * delta
            # probe: one matvec at the start and one per iteration, no check
            assert sol.matvecs_used == sol.n_accel + 1 < 2 * n + 1
            exact = brute_tr(a, b, 1.0)
            gap = tr_objective(a, b, sol.delta_vec) - tr_objective(a, b, exact)
            assert gap <= 2.0 * EARLY_EXIT_RTOL * delta + 1e-12

    def test_certified_residual_is_the_independent_one(self, np_rng):
        # the probe's residual and A x, read without a check matvec, are the
        # values a fresh operator computes at the answer, bit for bit, on
        # interior and boundary answers alike.  Restarted at its own answer,
        # the solve certifies at k = 0 from the probe's first product, or from
        # the handed-back product passed as a_start
        boundary = moved = restarts = 0
        for t in range(30):
            d = int(np_rng.integers(2, 21))
            m = random_symmetric(np_rng, d)
            shift = np_rng.uniform(0.2, 1.0)
            a = m @ m.T / d + shift * np.eye(d)
            b = 3.0 * np_rng.standard_normal(d)
            radius = float(np_rng.choice([0.1, 1.0, 10.0]))
            p = TrustRegionSubproblem(
                a_op=SymOperator(a, Counter()), b=b, radius=radius, delta=1e-4, q=0.01,
                b_bound=float(np.linalg.eigvalsh(a)[-1]), lam_min_lower=shift,
                x_start=0.1 * np_rng.standard_normal(d))
            sol = tr_solve(p, RngStream(t))
            assert sol.early_exit
            assert_certificate_is_fresh(a, b, radius, sol)
            moved += sol.n_accel >= 1
            boundary += bool(np.linalg.norm(sol.delta_vec) >= radius * (1.0 - 1e-12))
            if project_ball(sol.delta_vec, radius) is not sol.delta_vec:
                continue  # rounded past the sphere: a restart projects it anew
            restarts += 1
            for a_start, cost in ((None, 1), (sol.a_delta, 0)):
                again = tr_solve(dataclasses.replace(p, x_start=sol.delta_vec, a_start=a_start),
                                 RngStream(t))
                assert again.early_exit and again.n_accel == 0
                assert again.matvecs_used == cost
                assert again.delta_vec.tobytes() == sol.delta_vec.tobytes()
                assert_certificate_is_fresh(a, b, radius, again)
        # a boundary answer restarts too, unless it rounded past the sphere
        assert 0 < boundary < 30
        assert moved == 30 and 30 - boundary < restarts <= 30

    def test_undecided_probe_falls_back_bit_for_bit(self):
        # condition number 1e4 and N = 32: FISTA is far from a residual of
        # sqrt(eps) * delta when the probe budget runs out
        q, _ = np.linalg.qr(np.random.default_rng(5).standard_normal((5, 5)))
        a = q @ np.diag([1.0, 1e-2, 1e-3, 1e-4, 1e-4]) @ q.T
        a = 0.5 * (a + a.T)
        b = 1e-4 * q @ np.ones(5)
        delta, lg = 1e-2, 1.0
        n = accel_budget(lg, 1.0, delta)
        assert n == 32
        counter = Counter()
        p = TrustRegionSubproblem(a_op=SymOperator(a, counter), b=b, radius=1.0,
                                  delta=delta, q=0.01, b_bound=lg, lam_min_lower=0.0)
        sol = tr_solve(p, RngStream(0))
        assert not sol.early_exit
        assert sol.n_accel == n
        assert sol.matvecs_used == counter.count == (n + 1) + 2 * n + 1
        ref = fista_plus_sfg(SymOperator(a, Counter()), b, 1.0, lg, n)
        np.testing.assert_array_equal(sol.delta_vec, ref)
        assert sol.residual <= delta
        assert_certificate_is_fresh(a, b, 1.0, sol)

    def test_retry_hands_back_the_retried_product(self, monkeypatch):
        # the first fallback answers a boundary point far from the solution,
        # so its residual check fails and the solve retries with doubled
        # budgets; the certificate and product are the retried answer's
        q, _ = np.linalg.qr(np.random.default_rng(5).standard_normal((5, 5)))
        a = q @ np.diag([1.0, 1e-2, 1e-3, 1e-4, 1e-4]) @ q.T
        a = 0.5 * (a + a.T)
        b = 1e-4 * q @ np.ones(5)
        real = trsolver.fista_plus_sfg
        calls = []

        def wrong_first(op, b_vec, radius, lg, n_iters):
            calls.append(n_iters)
            if len(calls) == 1:
                return radius * q[:, 0]
            return real(op, b_vec, radius, lg, n_iters)

        monkeypatch.setattr(trsolver, "fista_plus_sfg", wrong_first)
        assert residual_of(SymOperator(a, Counter()), b, 1.0, q[:, 0]) > 1e-2
        p = TrustRegionSubproblem(a_op=SymOperator(a, Counter()), b=b, radius=1.0,
                                  delta=1e-2, q=0.01, b_bound=1.0, lam_min_lower=0.0)
        sol = tr_solve(p, RngStream(0))
        assert sol.retried and not sol.early_exit
        # the retry doubles the probe's N, and the fallback runs with it
        assert calls == [accel_budget(1.0, 1.0, 1e-2), 2 * accel_budget(1.0, 1.0, 1e-2)]
        assert sol.residual <= 1e-2
        assert_certificate_is_fresh(a, b, 1.0, sol)

    def test_exit_is_relative_to_the_linear_term(self, np_rng):
        # with delta >= |b| the exit is at sqrt(eps) |b|: scaling b and the
        # start by a power of two scales every probe iterate exactly, so a
        # tiny b (a converging run) meets no absolute accuracy floor
        d = 6
        m = random_symmetric(np_rng, d)
        a = m @ m.T / d + 0.5 * np.eye(d)
        b = 1e-5 * np_rng.standard_normal(d)
        start = 1e-5 * np_rng.standard_normal(d)
        assert np.linalg.norm(b) < 1e-4
        lg = float(np.linalg.eigvalsh(a)[-1])
        sols = []
        for scale in (1.0, 2.0**-40):
            p = TrustRegionSubproblem(
                a_op=SymOperator(a, Counter()), b=scale * b, radius=1.0, delta=1e-4,
                q=0.01, b_bound=lg, lam_min_lower=0.5, x_start=scale * start)
            sols.append(tr_solve(p, RngStream(0)))
        assert sols[0].early_exit and sols[1].early_exit
        assert sols[1].n_accel == sols[0].n_accel > 0
        np.testing.assert_array_equal(sols[1].delta_vec, 2.0**-40 * sols[0].delta_vec)
        assert sols[1].residual <= EARLY_EXIT_RTOL * 2.0**-40 * np.linalg.norm(b)

    def test_start_outside_the_ball_is_projected(self):
        # the projected start e1 is the exact boundary minimizer
        p = make_problem(np.eye(2), [-2.0, 0.0], 1.0, 1e-6)
        p.lam_min_lower = 1.0
        p.x_start = np.array([5.0, 0.0])
        sol = tr_solve(p, RngStream(0))
        assert sol.early_exit and sol.n_accel == 0
        np.testing.assert_array_equal(sol.delta_vec, [1.0, 0.0])
        assert sol.residual == 0.0
        assert sol.matvecs_used == 1

    def test_default_start_is_the_origin(self):
        p = make_problem(np.eye(3), np.zeros(3), 1.0, 1e-6)
        np.testing.assert_array_equal(p.x_start, np.zeros(3))
        p.lam_min_lower = 1.0
        sol = tr_solve(p, RngStream(0))
        assert sol.early_exit and sol.n_accel == 0 and sol.matvecs_used == 1


def caller_start(b, radius):
    """A caller's start with no product: half-way to the sphere along -b.
    ``tr_solve`` cannot price it without a matvec, so it keeps it over x_K."""
    return -0.5 * radius * b / np.linalg.norm(b)


def indefinite_instance(rng, kind, d, radius):
    """A subproblem as the benchmark's ``indefinite``, ``hard`` and
    ``psd_shifted`` cells draw it: |A|_F = sqrt(d), shifted to lambda_min =
    0.1 before that scaling for ``psd_shifted``; b of norm 2, or for the hard
    case orthogonal to the bottom eigenvector with norm 0.1 * radius *
    (lambda_2 - lambda_1)."""
    a = random_symmetric(rng, d)
    if kind == "psd_shifted":
        a += (0.1 - np.linalg.eigvalsh(a)[0]) * np.eye(d)
    a *= math.sqrt(d) / np.linalg.norm(a)
    b = rng.standard_normal(d)
    if kind == "hard":
        return a, hard_case_b(a, b, radius)
    return a, b * (2.0 / np.linalg.norm(b))


class TestRegularizedEarlyExit:
    """The regularized branches run the same probe on A - lambda_hat I at
    delta / 2, and fall back to the fixed-budget method only when it declines."""

    @pytest.mark.parametrize("kind,branch", [
        ("indefinite", TRBranch.REGULARIZED_BOUNDARY),
        ("hard", TRBranch.REGULARIZED_INTERIOR)])
    def test_probe_certifies_the_regularized_solve(self, kind, branch):
        rng = np.random.default_rng(0)
        d, radius, delta = 10, 10.0, 1e-4
        for t in range(8):
            a, b = indefinite_instance(rng, kind, d, radius)
            counter = Counter()
            p = make_problem(a, b, radius, delta, counter=counter)
            sol = tr_solve(p, RngStream(t))
            n = accel_budget(max(p.b_bound - sol.lambda_hat, delta), radius, 0.5 * delta)
            assert sol.branch is branch and sol.lambda_hat < 0.0
            assert sol.early_exit and not sol.retried
            assert sol.matvecs_used == counter.count < n / 4 < 2 * n
            # the certificate is the original problem's, applied once more
            assert sol.residual <= delta
            assert_certificate_is_fresh(a, b, radius, sol)
            exact = brute_tr(a, b, radius)
            gap = tr_objective(a, b, sol.delta_vec) - tr_objective(a, b, exact)
            assert gap <= delta * radius

    def test_boundary_exit_meets_the_probe_tolerance(self):
        # on the sphere with lambda_hat < 0, the shifted cone multiplier plus
        # |lambda_hat| is a feasible original one, so the original residual is
        # within the probe's tolerance up to the rounding of A x - lambda_hat x
        rng = np.random.default_rng(1)
        eps = np.finfo(float).eps
        exits = 0
        for t in range(60):
            d = int(rng.choice([10, 20]))
            radius = float(rng.choice([0.1, 1.0, 10.0]))
            delta = float(rng.choice([1e-2, 1e-4]))
            a, b = indefinite_instance(rng, "indefinite", d, radius)
            p = make_problem(a, b, radius, delta)
            sol = tr_solve(p, RngStream(t))
            if not (sol.early_exit and sol.branch is TRBranch.REGULARIZED_BOUNDARY):
                continue
            exits += 1
            assert sol.lambda_hat < 0.0
            tol = EARLY_EXIT_RTOL * min(0.5 * delta, float(np.linalg.norm(b)))
            slack = 8.0 * eps * (np.linalg.norm(b) + (p.b_bound - sol.lambda_hat) * radius)
            assert sol.residual <= tol + slack
        assert exits >= 50

    def test_low_step_estimate_backtracks_and_still_certifies(self, monkeypatch):
        # a top Ritz value pulled down to lambda_hat + (ritz_max - lambda_hat)/8
        # makes the first steps too long: the probe rejects them, doubles L,
        # and certifies within the N + 1 matvec bound all the same.  The
        # caller's start is kept, so the probe takes steps
        seen = []

        def low_ritz(*args, **kwargs):
            ev = min_evec(*args, **kwargs)
            ev.ritz_max = ev.lambda_hat + (ev.ritz_max - ev.lambda_hat) / 8.0
            seen.append(ev)
            return ev

        monkeypatch.setattr(trsolver, "min_evec", low_ritz)
        rng = np.random.default_rng(0)
        d, radius, delta = 10, 10.0, 1e-4
        rejected = 0
        for t in range(8):
            a, b = indefinite_instance(rng, "indefinite", d, radius)
            counter = Counter()
            p = make_problem(a, b, radius, delta, counter=counter)
            p.x_start = caller_start(b, radius)
            seen.clear()
            sol = tr_solve(p, RngStream(t))
            ev, = seen
            n = accel_budget(max(p.b_bound - sol.lambda_hat, delta), radius, 0.5 * delta)
            assert sol.branch is TRBranch.REGULARIZED_BOUNDARY and sol.start == "caller"
            assert sol.early_exit and not sol.retried and sol.residual <= delta
            assert_certificate_is_fresh(a, b, radius, sol)
            assert sol.matvecs_used == counter.count
            assert sol.matvecs_used <= ev.matvecs_used + (n + 1) + 2 * n + 1
            # the start, the kept steps, the rejected ones, then residual_of
            rejected += sol.matvecs_used - (ev.matvecs_used + 1 + sol.n_accel + 1)
        assert rejected > 0

    def test_start_product_comes_from_a_start(self):
        # A x_start - lambda_hat x_start formed from the caller's a_start has
        # the bits the shifted view's apply gives, so the regularized solve is
        # the same bit for bit with one matvec fewer.  At d = 100 min_evec's
        # stage-1 Krylov space has 70 dimensions, and the start on the sphere
        # along -b has a lower model value than x_K, so the solve keeps it
        rng = np.random.default_rng(2)
        d, radius, delta = 100, 0.1, 1e-2
        for t in range(4):
            a, b = indefinite_instance(rng, "indefinite", d, radius)
            start = 2.0 * caller_start(b, radius)
            a_start = SymOperator(a, Counter()).apply(start)
            sols = []
            for given in (None, a_start):
                p = make_problem(a, b, radius, delta, q=0.5)
                p.x_start, p.a_start = start, given
                sols.append(tr_solve(p, RngStream(t)))
            plain, reused = sols
            assert reused.branch is not TRBranch.CONVEX
            assert plain.start == reused.start == "caller" and reused.n_accel > 0
            lam = reused.lambda_hat
            shifted = SymOperator(a, Counter()).shifted(lam).apply(start)
            assert (a_start - lam * start).tobytes() == shifted.tobytes()
            assert reused.delta_vec.tobytes() == plain.delta_vec.tobytes()
            assert reused.a_delta.tobytes() == plain.a_delta.tobytes()
            assert (reused.residual, reused.n_accel) == (plain.residual, plain.n_accel)
            assert reused.matvecs_used == plain.matvecs_used - 1

    def test_declined_probe_falls_back_bit_for_bit(self):
        # a hard case in a small ball at delta = 1e-2: N is about 40 and the
        # probe on A - lambda_hat I, from the caller's start, does not reach
        # sqrt(eps) * delta / 2; the fallback starts from the origin
        rng = np.random.default_rng(11)
        d, radius, delta, q = 10, 0.1, 1e-2, 0.01
        a, b = indefinite_instance(rng, "hard", d, radius)
        counter = Counter()
        p = TrustRegionSubproblem(a_op=SymOperator(a, counter), b=b, radius=radius,
                                  delta=delta, q=q, b_bound=2.0 * np.linalg.norm(a),
                                  x_start=caller_start(b, radius))
        sol = tr_solve(p, RngStream(3))
        assert not sol.early_exit and not sol.retried and sol.start == "caller"
        assert sol.branch is TRBranch.REGULARIZED_INTERIOR
        # the reference: the same eigenpair draw, then the fixed-budget method
        # on the shifted operator at delta / 2 and the step onto the sphere
        ev = min_evec(SymOperator(a, Counter()), delta / (2.0 * radius), 0.5 * q,
                      p.b_bound, RngStream(3))
        assert ev.lambda_hat == sol.lambda_hat < 0.0
        lg = max(p.b_bound - ev.lambda_hat, delta)
        n = accel_budget(lg, radius, 0.5 * delta)
        assert sol.n_accel == n
        tilde = fista_plus_sfg(SymOperator(a, Counter()).shifted(ev.lambda_hat),
                               b, radius, lg, n)
        assert np.linalg.norm(tilde) < radius * (1.0 - 1e-9)
        v = ev.v_hat if tilde @ ev.v_hat <= 0.0 else -ev.v_hat
        proj = tilde @ v
        ref = tilde + (math.sqrt(proj**2 + radius**2 - tilde @ tilde) - proj) * v
        ref *= radius / np.linalg.norm(ref)
        np.testing.assert_array_equal(sol.delta_vec, ref)
        assert sol.matvecs_used == counter.count == ev.matvecs_used + (n + 1) + 2 * n + 1
        assert sol.residual <= delta
        assert_certificate_is_fresh(a, b, radius, sol)


class TestEigenCertifiedConvex:
    """A convex branch that min_evec certified runs the same probe from the
    top Ritz value, with the same backtracking guard as the regularized one."""

    def test_low_ritz_value_backtracks_and_still_certifies(self, monkeypatch):
        # a top Ritz value pulled down to 1/8 of itself makes the first steps
        # too long: the probe rejects them, doubles L, and certifies within
        # the N + 1 matvec bound all the same.  The caller's start is kept,
        # so the probe takes steps
        seen = []

        def low_ritz(*args, **kwargs):
            ev = min_evec(*args, **kwargs)
            ev.ritz_max /= 8.0
            seen.append(ev)
            return ev

        monkeypatch.setattr(trsolver, "min_evec", low_ritz)
        rng = np.random.default_rng(0)
        d, radius, delta = 10, 10.0, 1e-4
        rejected = 0
        for t in range(8):
            a, b = indefinite_instance(rng, "psd_shifted", d, radius)
            counter = Counter()
            p = make_problem(a, b, radius, delta, counter=counter)
            p.x_start = caller_start(b, radius)
            seen.clear()
            sol = tr_solve(p, RngStream(t))
            ev, = seen
            n = accel_budget(max(p.b_bound, delta), radius, delta)
            assert sol.branch is TRBranch.CONVEX and sol.start == "caller"
            assert sol.early_exit and not sol.retried and sol.residual <= delta
            assert_certificate_is_fresh(a, b, radius, sol)
            assert sol.matvecs_used == counter.count <= ev.matvecs_used + n + 1
            # the start, the kept steps, the rejected ones
            rejected += sol.matvecs_used - (ev.matvecs_used + 1 + sol.n_accel)
        assert rejected > 0

    def test_ritz_start_is_cheaper_than_the_fixed_step(self, monkeypatch):
        # on the benchmark's psd_shifted cells b_bound = 2 |A|_F is several
        # times lambda_max, so the fixed step 1 / b_bound crawls from the
        # caller's start, which the solve keeps
        rng = np.random.default_rng(5)
        d, radius, delta = 20, 10.0, 1e-4
        cases = [indefinite_instance(rng, "psd_shifted", d, radius) for _ in range(6)]

        def solve_all():
            return [tr_solve(dataclasses.replace(make_problem(a, b, radius, delta),
                                                 x_start=caller_start(b, radius)),
                             RngStream(t))
                    for t, (a, b) in enumerate(cases)]

        ritz = solve_all()
        real = trsolver.fista_probe
        monkeypatch.setattr(trsolver, "fista_probe",
                            lambda *args: real(*args[:8], l_start=None))
        fixed = solve_all()
        for sol, ref in zip(ritz, fixed):
            assert sol.branch is ref.branch is TRBranch.CONVEX
            assert sol.start == ref.start == "caller"
            assert sol.early_exit and sol.residual <= delta
            assert sol.matvecs_used < ref.matvecs_used


def krylov_replay(a, p, seed):
    """The eigenpair probe of ``tr_solve(p, RngStream(seed))``'s first
    attempt, replayed on a fresh operator, and the inner model's sigma."""
    ev = min_evec(SymOperator(a, Counter()), p.delta / (2.0 * p.radius), 0.5 * p.q,
                  p.b_bound, RngStream(seed))
    return ev, (0.0 if ev.case is MinEvecCase.PSD_CERTIFIED else ev.lambda_hat)


def model_value(a, sigma, b, x):
    """0.5 x'(A - sigma I)x + b'x, the inner problem's objective, densely."""
    return 0.5 * float(x @ (a @ x - sigma * x)) + float(b @ x)


class TestKrylovStart:
    """Wherever min_evec ran, the probe starts from x_K, the inner model's
    minimizer over its stage-1 Krylov space, when the model is lower there
    than at the caller's start."""

    @pytest.mark.parametrize("kind", ["indefinite", "hard", "psd_shifted"])
    def test_full_krylov_space_certifies_at_x_k(self, monkeypatch, kind):
        # k1 = d: x_K is the inner problem's exact minimizer, so the probe
        # certifies where it starts, after min_evec's k1 matvecs and the one
        # at x_K; a boundary answer is x_K, certified from that product, and
        # only an interior one, moved to the sphere, calls residual_of
        certified = []
        real = trsolver.residual_of
        monkeypatch.setattr(trsolver, "residual_of",
                            lambda *args, **kw: certified.append(args) or real(*args, **kw))
        rng = np.random.default_rng(17)
        branches = set()
        for t in range(30):
            d = int(rng.integers(2, 21))
            radius = float(rng.choice([0.1, 1.0, 10.0]))
            a, b = indefinite_instance(rng, kind, d, radius)
            counter = Counter()
            p = make_problem(a, b, radius, float(rng.choice([1e-2, 1e-4])), counter=counter)
            certified.clear()
            sol = tr_solve(p, RngStream(t))
            ev, sigma = krylov_replay(a, p, t)
            assert ev.basis.shape == (d, d) and ev.matvecs_used == d
            regularized = sol.branch is not TRBranch.CONVEX
            assert sol.start == "krylov" and sol.early_exit and sol.n_accel == 0
            interior = sol.branch is TRBranch.REGULARIZED_INTERIOR
            assert sol.matvecs_used == counter.count == d + 1 + interior
            assert len(certified) == interior
            assert sol.residual <= p.delta
            assert_certificate_is_fresh(a, b, radius, sol)
            if not regularized:
                x_k, _ = krylov_minimizer(ev.basis, ev.ritz_pairs, b, radius, sigma)
                assert sol.delta_vec.tobytes() == x_k.tobytes()
            branches.add(sol.branch)
        assert {"psd_shifted": TRBranch.CONVEX, "hard": TRBranch.REGULARIZED_INTERIOR,
                "indefinite": TRBranch.REGULARIZED_BOUNDARY}[kind] in branches

    def test_callers_start_product_never_certifies_a_regularized_answer(self):
        # a caller's start at the inner problem's exact minimizer, priced
        # from its a_start, is kept over x_K (a 13-dimensional Krylov space
        # at d = 20) and certifies where it starts; a_start is only A x_start
        # up to rounding, so residual_of applies A once more for the
        # certificate
        rng = np.random.default_rng(41)
        d, radius, delta = 20, 0.1, 0.1
        for t in range(4):
            a, b = indefinite_instance(rng, "indefinite", d, radius)
            counter = Counter()
            p = make_problem(a, b, radius, delta, q=0.5, counter=counter)
            ev, sigma = krylov_replay(a, p, t)
            assert sigma < 0.0 and ev.basis.shape[1] < d
            x_start = brute_tr(a - sigma * np.eye(d), b, radius)
            p.x_start, p.a_start = x_start, SymOperator(a, Counter()).apply(x_start)
            sol = tr_solve(p, RngStream(t))
            assert sol.start == "caller" and sol.early_exit and sol.n_accel == 0
            assert sol.branch is TRBranch.REGULARIZED_BOUNDARY
            assert sol.matvecs_used == counter.count == ev.matvecs_used + 1
            assert sol.a_delta is not p.a_start
            assert_certificate_is_fresh(a, b, radius, sol)

    def test_start_is_never_above_the_callers_known_value(self):
        # the probe's start is x_K only when x_K is strictly lower in the
        # inner model than the caller's start, priced from a_start; at d = 10
        # x_K is the model's minimizer and wins, at d = 100 (a 70-dimensional
        # Krylov space) a caller start on the sphere along -b wins
        rng = np.random.default_rng(23)
        starts = {"krylov": 0, "caller": 0}
        for t in range(16):
            d, radius, delta, q = ((10, 1.0, 1e-4, 0.01), (100, 0.1, 1e-2, 0.5))[t % 2]
            a, b = indefinite_instance(rng, ("indefinite", "psd_shifted")[t // 2 % 2], d,
                                       radius)
            if t % 4 < 2:
                x_start = radius * rng.uniform(0.0, 1.0) * rng.standard_normal(d) / math.sqrt(d)
            else:
                x_start = -radius * b / np.linalg.norm(b)
            p = dataclasses.replace(make_problem(a, b, radius, delta, q=q), x_start=x_start,
                                    a_start=SymOperator(a, Counter()).apply(x_start))
            sol = tr_solve(p, RngStream(t))
            ev, sigma = krylov_replay(a, p, t)
            x_k, value = krylov_minimizer(ev.basis, ev.ritz_pairs, b, radius, sigma)
            known = model_value(a, sigma, b, x_start)
            rounding = 1e-12 * (np.linalg.norm(b) * radius + p.b_bound * radius**2)
            assert abs(value - model_value(a, sigma, b, x_k)) <= rounding
            assert sol.start == ("krylov" if value < known else "caller")
            start = x_k if sol.start == "krylov" else x_start
            assert model_value(a, sigma, b, start) <= known + rounding
            starts[sol.start] += 1
            if d == 10:
                assert sol.start == "krylov"
        assert min(starts.values()) > 0

    @pytest.mark.parametrize("kind", ["indefinite", "hard", "psd_shifted"])
    def test_kept_caller_start_is_the_solve_without_krylov_starts(self, monkeypatch, kind):
        # a caller start with no product is kept, and the solve from it is,
        # bit for bit, the one where x_K is never available
        rng = np.random.default_rng(29)
        d, radius, delta = 12, 1.0, 1e-4
        problems = []
        for _ in range(6):
            a, b = indefinite_instance(rng, kind, d, radius)
            problems.append(dataclasses.replace(make_problem(a, b, radius, delta),
                                                x_start=caller_start(b, radius)))

        def solve_all():
            return [tr_solve(dataclasses.replace(p, a_op=SymOperator(p.a_op.dense(),
                                                                     Counter())),
                             RngStream(t))
                    for t, p in enumerate(problems)]

        kept = solve_all()
        monkeypatch.setattr(trsolver, "krylov_minimizer", lambda *args: None)
        without = solve_all()
        for sol, ref in zip(kept, without):
            assert sol.start == ref.start == "caller"
            assert sol.delta_vec.tobytes() == ref.delta_vec.tobytes()
            assert sol.a_delta.tobytes() == ref.a_delta.tobytes()
            assert ((sol.residual, sol.n_accel, sol.matvecs_used, sol.branch, sol.early_exit)
                    == (ref.residual, ref.n_accel, ref.matvecs_used, ref.branch,
                        ref.early_exit))

    def test_secular_solve_meets_the_sphere(self):
        # a boundary model: Newton on 1/|y(mu)| - 1/D lands y on the sphere,
        # and the answer solves (T - sigma I + mu I) y = -g with mu >= 0
        rng = np.random.default_rng(31)
        for _ in range(20):
            k = int(rng.integers(1, 9))
            diag = rng.uniform(-1.0, 1.0, k)
            off = rng.uniform(0.1, 1.0, k - 1)
            t_mat = np.diag(diag) + np.diag(off, 1) + np.diag(off, -1)
            sigma = float(np.linalg.eigvalsh(t_mat)[0]) - 1e-3
            basis = np.linalg.qr(rng.standard_normal((k + 3, k)))[0]
            b = 10.0 * rng.standard_normal(k + 3)
            x, value = krylov_minimizer(basis, tridiagonal_eigh(diag, off, compute_v=True), b,
                                        0.5, sigma)
            y = basis.T @ x
            assert abs(np.linalg.norm(y) - 0.5) <= 1e-12
            g = basis.T @ b
            r = (t_mat - sigma * np.eye(k)) @ y + g
            mu = -float(r @ y) / 0.25
            assert mu > 0.0
            np.testing.assert_allclose(r + mu * y, 0.0, atol=1e-9 * np.linalg.norm(g))
            assert value == pytest.approx(model_value(t_mat, sigma, g, y), rel=1e-12)


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
        # a nonnegative lam_min_lower skips min_evec: no RNG draw, no eig
        # matvec, and the probe from the caller's origin at the fixed step
        # 1 / b_bound.  A solve that min_evec certified is the probe from its
        # top Ritz value and from x_K, the model minimizer over min_evec's
        # Krylov space, instead, bit for bit, on the same eigenpair draw
        radius, delta = 1.0, 1e-4
        for t in range(20):
            d = int(np_rng.integers(2, 21))
            m = random_symmetric(np_rng, d)
            a = m @ m.T + np_rng.uniform(0.05, 1.0) * np.eye(d)
            b = np_rng.standard_normal(d)
            lam_min = float(np.linalg.eigvalsh(a)[0])
            probed = tr_solve(make_problem(a, b, radius, delta), RngStream(40 + t))
            p = make_problem(a, b, radius, delta)
            p.lam_min_lower = 0.5 * lam_min
            rng = RngStream(40 + t)
            sol = tr_solve(p, rng)
            assert rng.state() == (40 + t, 0)
            assert sol.lambda_hat == 0.5 * lam_min
            ev = min_evec(SymOperator(a, Counter()), delta / (2.0 * radius), 0.5 * p.q,
                          p.b_bound, RngStream(40 + t))
            x_k, _ = krylov_minimizer(ev.basis, ev.ritz_pairs, b, radius, 0.0)
            lg = max(p.b_bound, delta)
            tol = EARLY_EXIT_RTOL * min(delta, float(np.linalg.norm(b)))
            assert (sol.start, probed.start) == ("caller", "krylov")
            for got, start, l_start, eig_matvecs in (
                    (sol, np.zeros(d), None, 0),
                    (probed, x_k, ev.ritz_max, ev.matvecs_used)):
                op = SymOperator(a, Counter())
                x, k, res, ax = fista_probe(op, b, radius, lg, accel_budget(lg, radius, delta),
                                            start, tol, l_start=l_start)
                assert got.branch is TRBranch.CONVEX and got.early_exit
                assert got.delta_vec.tobytes() == x.tobytes()
                assert got.a_delta.tobytes() == ax.tobytes()
                assert (got.residual, got.n_accel) == (res, k)
                assert got.residual <= delta
                assert got.matvecs_used == eig_matvecs + op.counter.count

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

    @pytest.mark.parametrize("name,value", [
        ("a_start", np.array([-1.0])), ("x_start", np.zeros(2)), ("b", np.ones((3, 1)))])
    def test_mis_shaped_input_rejected(self, name, value):
        # a (1,)-shaped a_start once broadcast in the probe, which certified
        # x_start at k = 0 with a residual of 0.0 where the true one is 2.03
        a = np.diag([1.0, 2.0, 3.0])
        x_start = np.array([0.3, 0.2, -0.1])
        fields = dict(b=np.ones(3), x_start=x_start, a_start=a @ x_start)
        fields[name] = value
        with pytest.raises(InvalidArgument, match=rf"^{name} \("):
            TrustRegionSubproblem(a_op=SymOperator(a, Counter()), radius=1.0, delta=1e-3,
                                  q=0.01, b_bound=4.0, lam_min_lower=1.0, **fields)

    def test_lied_bound_surfaces_certificate_failure(self):
        # the caller's spectral bound is the solver's certificate; a gross
        # underestimate makes the caller-certified solve's fixed steps
        # diverge, and the failed residual check must surface after one
        # retry rather than pass.  Left to min_evec, the same instance is
        # solved honestly: with d = 2 its Krylov space is full, so x_K is the
        # exact minimizer and certifies without a step
        from oqn.errors import CertificateFailure

        a = np.diag([100.0, 1.0])
        p = TrustRegionSubproblem(a_op=SymOperator(a, Counter()), b=np.array([-5.0, 0.0]),
                                  radius=1.0, delta=1e-6, q=0.01, b_bound=0.5,
                                  lam_min_lower=1.0)
        with pytest.raises(CertificateFailure):
            tr_solve(p, RngStream(4))
        sol = tr_solve(dataclasses.replace(p, lam_min_lower=-math.inf), RngStream(4))
        assert sol.start == "krylov" and sol.early_exit and sol.n_accel == 0
        assert sol.residual <= 1e-6
        assert_certificate_is_fresh(a, p.b, 1.0, sol)

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
