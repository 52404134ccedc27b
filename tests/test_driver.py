import dataclasses
import functools
import gc
import operator
import sys
import tracemalloc

import numpy as np
import pytest
from scipy.linalg import eigh_tridiagonal
from scipy.linalg.blas import ddot

from conftest import spy_conversion, spy_steps, stdout_per_blas_thread_count
from oqn import driver, hessian_learner, trsolver, verify
from oqn.eig import lanczos_factorize, min_evec, sep, sep_budget
from oqn.driver import HyperParams, compute_hyperparams
from oqn.errors import InvalidArgument
from oqn.linops import Counter, SymOperator
from oqn.problems import (DenseHessian, ObjectiveSpec, catalog, eval_gradient,
                          hess_form_rtol, quadratic_from_matrix)
from oqn.rng import RngStream
from oqn.trsolver import TrustRegionSubproblem, tr_solve


def scalar_quadratic(x0=1.0):
    return quadratic_from_matrix(np.eye(1), x0=np.array([x0]))


def manual(d_radius, eta, t_len, k_eps, delta_tr=1e-8, p_fail=0.01):
    return HyperParams(d_radius=d_radius, eta=eta, t_len=t_len, k_eps=k_eps,
                       delta_tr=delta_tr, p_fail=p_fail)


def left_fold(values):
    """The left-to-right float sum that the run log folds (Python 3.12's
    ``sum()`` compensates, so it is not used here)."""
    return functools.reduce(operator.add, values, 0.0)


class TestComputeHyperparams:
    def test_unit_normalized_instance(self):
        # gap/52 = 1 makes the radius exactly one; frozen mpmath values
        spec = ObjectiveSpec(dim=1, grad=lambda x: x, l1=1.0, l2=1.0,
                             f_lower=0.0, x0=np.array([2.0]))
        params = compute_hyperparams(spec, 1, gap_bound=52.0)
        assert params.d_radius == pytest.approx(1.0, rel=1e-12)
        assert params.eta == pytest.approx(0.14855020483050028, rel=1e-12)
        assert params.t_len == 6  # round(5.664525...)
        assert params.k_eps == 1

    def test_frozen_high_precision_instance(self):
        # gap=1, d=4, L1=2, L2=1, M=1000; oracle: 50-digit mpmath evaluation
        spec = ObjectiveSpec(dim=4, grad=lambda x: x, l1=2.0, l2=1.0,
                             f_lower=0.0, x0=np.ones(4))
        params = compute_hyperparams(spec, 1000, gap_bound=1.0)
        assert params.d_radius == pytest.approx(0.011148479486249355, rel=1e-13)
        assert params.eta == pytest.approx(0.25771103026911274, rel=1e-13)
        assert params.t_len == 21
        assert params.k_eps == 47
        assert params.m_total == 987
        assert params.delta_tr == pytest.approx(0.0020599815808478056, rel=1e-12)

    def test_matches_closed_form_exponents(self):
        # the equivalent closed form: eta ~ M^{2/13} gap^{-2/13} d^{-7/13}
        # L1^{-7/13} L2^{-4/13}, up to one shared constant
        def eta_of(gap, d, l1, l2, m):
            spec = ObjectiveSpec(dim=d, grad=lambda x: x, l1=l1, l2=l2,
                                 f_lower=0.0, x0=np.ones(d))
            return compute_hyperparams(spec, m, gap_bound=gap).eta

        base = eta_of(2.0, 3, 1.5, 0.7, 500)
        for idx, expo in [(0, -2 / 13), (1, -7 / 13), (2, -7 / 13),
                          (3, -4 / 13), (4, 2 / 13)]:
            args = [2.0, 3, 1.5, 0.7, 500]
            args[idx] = args[idx] * 2
            measured = np.log(eta_of(*args) / base) / np.log(2.0)
            assert measured == pytest.approx(expo, abs=1e-10)

    def test_delta_matches_radius_over_eta_t(self):
        spec = catalog("cosine_mixture", 4)
        params = compute_hyperparams(spec, 200)
        assert params.delta_tr == pytest.approx(
            params.d_radius / (params.eta * params.t_len), rel=1e-14)
        assert params.m_total <= 200

    def test_zero_l2_rejected(self):
        spec = quadratic_from_matrix(np.eye(2))
        with pytest.raises(InvalidArgument, match="auto hyperparameters divide by l2"):
            compute_hyperparams(spec, 100)

    def test_missing_gap_rejected(self):
        spec = ObjectiveSpec(dim=2, grad=lambda x: x, l1=1.0, l2=1.0,
                             f_lower=0.0, x0=np.ones(2))
        with pytest.raises(InvalidArgument, match="need a value oracle at x0"):
            compute_hyperparams(spec, 100)


class TestInit:
    def test_first_displacement_is_scaled_steepest_descent(self):
        spec = quadratic_from_matrix(np.eye(2), x0=np.array([1.0, 0.0]))
        params = manual(0.1, 1.0, 1, 1)
        state = driver.init(spec, params)
        np.testing.assert_allclose(state.delta_vec, [-0.1, 0.0])
        np.testing.assert_allclose(state.hint, [1.0, 0.0])
        assert state.grad_counter.count == 1

    def test_stationary_start_plays_zero_displacement(self):
        spec = quadratic_from_matrix(np.eye(2), x0=np.zeros(2))
        state = driver.init(spec, manual(0.1, 1.0, 1, 1))
        np.testing.assert_array_equal(state.delta_vec, np.zeros(2))
        assert state.grad_counter.count == 1

    def test_stationary_start_run_degenerates_gracefully(self, monkeypatch):
        # a run of zero steps, closed like every other run
        spec = quadratic_from_matrix(np.eye(2), x0=np.zeros(2))
        params = manual(0.1, 1.0, 2, 3)
        for audit_level in driver.AUDIT_LEVELS:
            report = driver.run(spec, params, RngStream(0), audit_level=audit_level)
            assert report.stationary_start
            assert report.episodes == []
            assert report.totals["iterations"] == 0
            assert report.totals["gradients"] == 1
            assert report.totals["matvecs"] == 0
            assert report.audits == {}
            np.testing.assert_array_equal(report.w_hat, np.zeros(2))
            assert report.grad_norm_final == 0.0

        # the totals are read off the counter, and the 2M + K + 1 check
        # (2*0 + 0 + 1) runs on this run too: a miscounted oracle trips it
        def double_count(spec, x, counter):
            counter.tick()
            return eval_gradient(spec, x, counter)

        monkeypatch.setattr(driver, "eval_gradient", double_count)
        for audit_level in driver.AUDIT_LEVELS:
            with pytest.raises(AssertionError, match="gradient accounting broken: 2 != 1"):
                driver.run(spec, params, RngStream(0), audit_level=audit_level)


class TestStepHandTrace:
    def test_clipped_boundary_trace(self):
        # f = x^2/2, x0 = 1, D = 0.1, eta = 1: the first trust-region solve
        # clips the unconstrained step to the boundary
        spec = scalar_quadratic()
        params = manual(0.1, 1.0, 1, 1, delta_tr=1e-6)
        state = driver.init(spec, params)
        w = state.x + 0.5 * state.delta_vec
        driver.step(state, spec, params, RngStream(0))
        assert state.x[0] == pytest.approx(0.9)
        assert spec.grad(w)[0] == pytest.approx(0.95)
        assert state.grad_z_prev[0] == pytest.approx(0.85)
        assert state.delta_vec[0] == pytest.approx(-0.1, abs=1e-5)
        # hint: grad at the trailing point plus zero matrix correction
        assert state.hint[0] == pytest.approx(0.85, abs=1e-5)

    def test_interior_trace_pins_linear_term(self):
        # same instance with D = 5: the solve goes interior, so its answer
        # is -b/A = 4 and pins the assembled linear term b = -4 exactly
        spec = scalar_quadratic()
        params = manual(5.0, 1.0, 1, 1, delta_tr=1e-6)
        state = driver.init(spec, params)
        w = state.x + 0.5 * state.delta_vec
        driver.step(state, spec, params, RngStream(0))
        assert state.x[0] == pytest.approx(-4.0)
        assert spec.grad(w)[0] == pytest.approx(-1.5)
        assert state.grad_z_prev[0] == pytest.approx(-6.5)
        assert state.delta_vec[0] == pytest.approx(4.0, abs=1e-5)

    def test_gradient_counter_recursion(self):
        spec = catalog("cosine_mixture", 3)
        params = manual(0.05, 0.3, 3, 4, delta_tr=1e-4)
        state = driver.init(spec, params)
        rng = RngStream(5)
        closes = 0
        for n in range(1, params.m_total + 1):
            driver.step(state, spec, params, rng)
            closes += int(n % params.t_len == 0)
            assert state.grad_counter.count == 1 + 2 * n + closes
            assert np.linalg.norm(state.delta_vec) <= params.d_radius + 1e-12

    def test_hint_consistency_identity(self):
        # h_{n+1} = grad f(z_n) + B/2 (delta_{n+1} - delta_n), formed from the
        # products of A = B/2 + I/eta at both displacements: rebuilt from a
        # fresh operator bit for bit when the step applied A, within the
        # start product's tolerance when it derived that product from the
        # last solve's, and equal to the B form up to rounding.  A learner
        # step 1e4 times the default makes some rounds not plain, so steps
        # of both kinds move under a nonzero B
        spec = perturbed("cosine_mixture", 3)
        params = manual(1.0, 0.3, 2, 3, delta_tr=1e-4)
        state = driver.init(spec, params)
        state.b_state.rho *= 1e4
        rng = RngStream(9)
        moved = derived_moved = 0
        for _ in range(params.m_total):
            delta_before = state.delta_vec.copy()
            derived_before = state.totals["tr"]["start_products_derived"]
            driver.step(state, spec, params, rng)
            derived = state.totals["tr"]["start_products_derived"] > derived_before
            # the step's learner round played B before the solve
            b, delta = state.b_state.b_op.dense(), state.delta_vec
            gz, eta = state.grad_z_prev, params.eta
            a_op = SymOperator(b, Counter()).shifted(-1.0 / eta, scale=0.5)
            rebuilt = gz + (a_op.apply(delta) - a_op.apply(delta_before)) \
                - (delta - delta_before) / eta
            scale = np.linalg.norm(gz) + params.d_radius / eta
            if derived:
                # |A delta_n| <= D (1/eta + |B|_F / 2) bounds the product's error
                a_scale = params.d_radius * (1.0 / eta + np.linalg.norm(b))
                np.testing.assert_allclose(state.hint, rebuilt, rtol=0,
                                           atol=verify.START_PRODUCT_RTOL * a_scale)
            else:
                np.testing.assert_array_equal(state.hint, rebuilt)
            b_form = gz + 0.5 * b @ (delta - delta_before)
            np.testing.assert_allclose(state.hint, b_form, rtol=0, atol=1e-14 * scale)
            step_moved = not np.array_equal(delta, delta_before) and np.any(b != 0.0)
            moved += step_moved
            derived_moved += derived and step_moved
        assert moved > derived_moved > 0


class TestRun:
    def test_cosine_budget_and_counts(self):
        spec = catalog("cosine_mixture", 4)
        params = compute_hyperparams(spec, 120)
        assert params.m_total <= 120
        report = driver.run(spec, params, RngStream(7))
        assert report.totals["gradients"] == 2 * params.m_total + params.k_eps + 1
        assert len(report.episodes) == params.k_eps

    def test_quadratic_manual_monotone_episodes(self, monkeypatch):
        # convex instance where the averaged-iterate gradient norms decay
        spec = catalog("quadratic", 6, seed=2)
        params = manual(1.0, 0.5 / spec.l1, 10, 8, delta_tr=1e-5)
        steps = spy_conversion(monkeypatch)
        report = driver.run(spec, params, RngStream(3), audit_level="full")
        norms = [e.grad_norm_at_wbar for e in report.episodes]
        assert all(b <= a * (1 + 1e-12) for a, b in zip(norms, norms[1:]))
        # quadratic midpoint identity: decrease equals the linear loss exactly
        assert len(steps) == params.m_total
        slack = spec.l2 * params.d_radius**3 / 24.0
        worst = worst_tolerated = np.inf
        for x, delta, x_next in steps:
            f, f_next = spec.value(x), spec.value(x_next)
            gd = ddot(spec.grad(x + 0.5 * delta), delta)
            assert abs(f - f_next + gd) <= 1e-10 * (1.0 + abs(f_next))
            margin = f - f_next + gd + slack
            worst = min(worst, margin)
            worst_tolerated = min(worst_tolerated, margin + 1e-9 * (1.0 + abs(f_next)))
        # the log folded the same per-step margins, bit for bit
        assert report.log.conversion_min_margin == worst
        assert report.log.conversion_min_tolerated == worst_tolerated
        assert report.audits["conversion_step_min_margin"] == worst
        assert report.log.f_start == spec.value(spec.x0)
        assert report.log.f_last == spec.value(steps[-1][2])

    def test_single_step_episode_regret_is_cauchy_schwarz_gap(self):
        spec = catalog("cosine_mixture", 3)
        params = manual(0.05, 0.3, 1, 1, delta_tr=1e-4)
        report = driver.run(spec, params, RngStream(4), audit_level="full")
        ep = report.episodes[0]
        g0 = spec.grad(spec.x0)
        delta1 = -params.d_radius * g0 / np.linalg.norm(g0)
        g1 = spec.grad(spec.x0 + 0.5 * delta1)
        expected = g1 @ delta1 + params.d_radius * np.linalg.norm(g1)
        assert ep.episode_regret == pytest.approx(expected, rel=1e-12)
        assert ep.episode_regret >= -1e-12

    def test_strict_audit_requires_value_oracle(self):
        # the audits that read f (conversion, stationarity) need the value
        # oracle; without it they are skipped and the others still run
        base = catalog("cosine_mixture", 3)
        spec = ObjectiveSpec(dim=3, grad=base.grad, l1=base.l1, l2=base.l2,
                             f_lower=0.0, x0=base.x0)
        params = manual(0.05, 0.3, 2, 2, delta_tr=1e-4)
        report = driver.run(spec, params, RngStream(1), audit_level="full")
        assert "conversion_step_min_margin" not in report.audits
        assert "stationarity_lhs" not in report.audits
        assert report.audits["regret_ok"]

    def test_ties_broken_by_earliest_episode(self, monkeypatch):
        spec = catalog("cosine_mixture", 4)
        params = compute_hyperparams(spec, 60)
        steps = spy_conversion(monkeypatch)
        report = driver.run(spec, params, RngStream(2))
        best = min(e.grad_norm_at_wbar for e in report.episodes)
        first = next(e for e in report.episodes if e.grad_norm_at_wbar == best)
        assert report.grad_norm_final == best
        # the first best episode's average w_bar, summed as the run sums it
        t = params.t_len
        w_sum = np.zeros(spec.dim)
        for x, delta, _ in steps[(first.k - 1) * t:first.k * t]:
            w_sum += x + 0.5 * delta
        np.testing.assert_array_equal(report.w_hat, w_sum / t)
        assert np.linalg.norm(spec.grad(report.w_hat)) == pytest.approx(best, rel=1e-12)

    def test_exact_tie_returns_the_first_episode(self, monkeypatch):
        # a linear objective has the same gradient everywhere, so every
        # episode ties, and w_hat is the first episode's average
        grad = np.array([0.6, -0.8])
        spec = ObjectiveSpec(dim=2, grad=lambda x: grad.copy(), l1=1.0, l2=1.0,
                             f_lower=-1e3, x0=np.zeros(2))
        params = manual(0.1, 0.5, 2, 3, delta_tr=1e-6)
        steps = spy_conversion(monkeypatch)
        report = driver.run(spec, params, RngStream(0))
        assert len({ep.grad_norm_at_wbar for ep in report.episodes}) == 1
        averages = [(steps[k][0] + 0.5 * steps[k][1] + steps[k + 1][0]
                     + 0.5 * steps[k + 1][1]) / 2 for k in (0, 2, 4)]
        assert not np.array_equal(averages[0], averages[1])
        np.testing.assert_array_equal(report.w_hat, averages[0])

    def test_box_violations_flagged_not_fatal(self):
        # shrink the validity box so the very first iterates leave it;
        # the run completes and reports the violations
        spec = catalog("rosenbrock_local", 4, box=0.5)
        params = manual(0.05, 1e-4, 2, 2, delta_tr=1e-3)
        report = driver.run(spec, params, RngStream(0))
        assert report.totals["box_violations"] == 4
        assert report.totals["gradients"] == 2 * params.m_total + params.k_eps + 1

    def test_eps_target_early_exit(self):
        spec = catalog("cosine_mixture", 4)
        params = compute_hyperparams(spec, 120)
        report = driver.run(spec, params, RngStream(7), eps_target=0.5)
        assert report.totals["stopped_early"]
        assert report.grad_norm_final <= 0.5
        assert len(report.episodes) < params.k_eps
        totals = report.totals
        assert totals["gradients"] == 2 * totals["iterations"] + len(report.episodes) + 1

    @pytest.mark.parametrize("eps_target", [None, 0.5], ids=["full", "stopped"])
    def test_gradient_accounting_is_checked_on_every_run(self, monkeypatch, eps_target):
        # one tick too many breaks 2 * iterations + episodes + 1, whether the
        # run spends its budget or eps_target stops it; a call evaluates a
        # point or a stack of rows, and the run stopped early when it
        # evaluated fewer points than a full run's 2M + K + 1
        real = driver.eval_gradient
        points = []

        def ticks_once_more(spec, x, counter):
            if not points:
                counter.tick()
            points.append(1 if np.ndim(x) == 1 else len(x))
            return real(spec, x, counter)

        monkeypatch.setattr(driver, "eval_gradient", ticks_once_more)
        spec = catalog("cosine_mixture", 4)
        params = compute_hyperparams(spec, 120)
        with pytest.raises(AssertionError, match="gradient accounting broken"):
            driver.run(spec, params, RngStream(7), eps_target=eps_target)
        stopped = sum(points) < params.gradient_total
        assert stopped == (eps_target is not None)


class TestConversionSlack:
    """The per-step conversion audit allows the midpoint rule's error,
    L2 D^3 / 24.  On f = x1^3/6 + x1^2 + x2^2/2 (Hessian diag(x1 + 2, 1),
    exactly 1-Lipschitz) the first step moves x1 by exactly +D, where the
    error is -D^3/24, so the bound holds with equality."""

    @staticmethod
    def cubic():
        return ObjectiveSpec(
            dim=2, grad=lambda x: np.array([0.5 * x[0] ** 2 + 2.0 * x[0], x[1]]),
            l1=100.0, l2=1.0, f_lower=-1e3, x0=np.array([-2.0, 0.0]),
            value=lambda x: x[0] ** 3 / 6.0 + x[0] ** 2 + 0.5 * x[1] ** 2,
            hess_at=lambda x: DenseHessian(np.diag([x[0] + 2.0, 1.0])))

    @pytest.mark.parametrize("d_radius", [0.5, 1.0])
    def test_cubic_attains_the_midpoint_bound(self, d_radius):
        params = manual(d_radius, 0.05, 4, 3, delta_tr=1e-6)
        report = driver.run(self.cubic(), params, RngStream(0), audit_level="episode")
        audits = report.audits
        assert audits["conversion_step_ok"] and audits["stationarity_ok"]
        assert audits["all_ok"], audits
        assert abs(audits["conversion_step_min_margin"]) <= 1e-12


class TestComparatorLedger:
    """The dynamic-regret ledger is folded step by step: one Hessian at each
    z_n, the comparator loss when pair n closes, the path step once z_{n+1}
    exists, and no per-step vectors kept.  It reads a spec's Hessian form
    (``hess_at``), a ``DenseHessian`` on a spec with a dense Hessian alone."""

    @staticmethod
    def recording(base, dense=False):
        """``base`` whose ``hess_at`` records each point it is called at;
        with ``dense``, it wraps the form's ``dense()`` in a ``DenseHessian``,
        as a spec with a dense Hessian alone states it."""
        points = []

        def hess_at(z):
            points.append(z.copy())
            form = base.hess_at(z)
            return DenseHessian(form.dense()) if dense else form

        return dataclasses.replace(base, hess_at=hess_at), points

    LEDGER = ("comparator_loss_sum", "comparator_loss_max", "comparator_path_sum",
              "comparator_path_max", "hess_fro_first")

    @staticmethod
    def stepped(spec, params, seed):
        """Run the steps by hand with a full log; return it with each step's
        z_n and (g_n, grad f(z_n), s_n)."""
        state = driver.init(spec, params)
        log = driver.StepLog(full=True)
        rng = RngStream(seed)
        z_pts, trail = [], []
        for _ in range(params.m_total):
            delta_n = state.delta_vec.copy()
            g_n = spec.grad(state.x + 0.5 * delta_n)
            driver.step(state, spec, params, rng, log=log)
            z_pts.append(state.x + 0.5 * delta_n)
            trail.append((g_n, state.grad_z_prev.copy(), state.pending_s.copy()))
        return log, z_pts, trail

    def test_step_ledger_matches_dense_recomputation(self):
        # a spec with the dense Hessian alone
        base = catalog("cosine_mixture", 6)
        spec, points = self.recording(base, dense=True)
        params = compute_hyperparams(spec, 60)
        log, z_pts, trail = self.stepped(spec, params, 3)
        m = params.m_total
        assert len(points) == m
        for z_rec, z in zip(points, z_pts):
            np.testing.assert_array_equal(z_rec, z)
        h = [base.hess_at(z).dense() for z in z_pts]
        losses = []
        for n in range(m - 1):
            # pair n closes in step n+1: y = g_{n+1} - grad f(z_n), s = pending_s
            r = (trail[n + 1][0] - trail[n][1]) - h[n] @ trail[n][2]
            losses.append(float(r @ r))
        path = [float(np.linalg.norm(h[n + 1] - h[n])) for n in range(m - 1)]
        # the folds equal the left folds of the dense terms, bit for bit
        assert log.comparator_loss_sum == left_fold(losses)
        assert log.comparator_loss_max == max(losses)
        assert log.comparator_path_sum == left_fold(path)
        assert log.comparator_path_max == max(path)
        assert log.hess_fro_first == float(np.linalg.norm(h[0]))
        # the log holds scalars only, none per step
        for f in dataclasses.fields(log):
            assert isinstance(getattr(log, f.name), (bool, float, type(None))), f.name

    def test_run_audit_sums_the_ledger(self):
        # once through the dense Hessian alone, once through the form
        for dense in (True, False):
            base = catalog("cosine_mixture", 6)
            spec, points = self.recording(base, dense)
            params = compute_hyperparams(spec, 60)
            report = driver.run(spec, params, RngStream(3), audit_level="full")
            log = report.log
            assert len(points) == params.m_total
            # the run folds the ledger that the steps above fold, pair by pair
            stepped, _, _ = self.stepped(spec, params, 3)
            assert [getattr(log, key) for key in self.LEDGER] \
                == [getattr(stepped, key) for key in self.LEDGER]
            d_rad, a = params.d_radius, report.audits
            assert a["comparator_loss_max"] == log.comparator_loss_max
            assert a["comparator_path_max"] == log.comparator_path_max
            assert a["dynamic_regret_lhs"] == log.sum_loss
            assert a["dynamic_regret_rhs"] == (
                16.0 * d_rad**2 * log.hess_fro_first ** 2 + 2.0 * log.comparator_loss_sum
                + 64.0 * spec.l1 * d_rad**2 * np.sqrt(spec.dim) * log.comparator_path_sum)
            assert report.audits["all_ok"]

    @pytest.mark.parametrize("name", ["cosine_mixture", "coupled_trig", "rosenbrock_local"])
    def test_step_ledger_folds_the_structured_terms(self, name):
        # a catalog spec's form: the folds are the structured terms' bit
        # for bit, each within hess_form_rtol of its dense recomputation
        base = catalog(name, 6)
        spec, points = self.recording(base)
        params = compute_hyperparams(spec, 60)
        log, z_pts, trail = self.stepped(spec, params, 3)
        m = params.m_total
        assert len(points) == m
        for z_rec, z in zip(points, z_pts):
            np.testing.assert_array_equal(z_rec, z)
        forms = [base.hess_at(z) for z in z_pts]
        h = [form.dense() for form in forms]
        tol = hess_form_rtol(spec.dim)
        losses = []
        for n in range(m - 1):
            y, s = trail[n + 1][0] - trail[n][1], trail[n][2]
            r, r_dense = y - forms[n].matvec(s), y - h[n] @ s
            losses.append(float(r @ r))
            h_fro = np.linalg.norm(h[n])
            assert abs(np.linalg.norm(r) - np.linalg.norm(r_dense)) <= tol * (
                h_fro * np.linalg.norm(s) + np.linalg.norm(y) + np.linalg.norm(r_dense))
        path = [forms[n + 1].fro(forms[n]) for n in range(m - 1)]
        for n in range(m - 1):
            assert abs(path[n] - np.linalg.norm(h[n + 1] - h[n])) <= tol * (
                np.linalg.norm(h[n + 1]) + np.linalg.norm(h[n]))
        assert log.comparator_loss_sum == left_fold(losses)
        assert log.comparator_loss_max == max(losses)
        assert log.comparator_path_sum == left_fold(path)
        assert log.comparator_path_max == max(path)
        assert log.hess_fro_first == forms[0].fro()
        h_fro = np.linalg.norm(h[0])
        assert abs(log.hess_fro_first - h_fro) <= tol * h_fro

    def test_episode_level_evaluates_no_hessian(self):
        spec, points = self.recording(catalog("cosine_mixture", 6))
        report = driver.run(spec, compute_hyperparams(spec, 60), RngStream(3))
        assert points == []
        assert "dynamic_regret_ok" not in report.audits


class TestBoundedLog:
    """A logged run keeps scalars, not per-step lists: the bytes its report
    retains exceed an unlogged report's by a constant, plus the one measured
    float (``sum_loss``) each episode record holds where an "off" record
    holds None."""

    @staticmethod
    def retained(spec, params, audit_level):
        gc.collect()
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            report = driver.run(spec, params, RngStream(0), audit_level=audit_level)
            gc.collect()
            return tracemalloc.get_traced_memory()[0] - before, len(report.episodes)
        finally:
            tracemalloc.stop()

    def test_logged_report_retains_a_constant_over_off(self):
        spec = catalog("cosine_mixture", 8)
        # a first run of each level pays the one-off allocations
        for audit_level in driver.AUDIT_LEVELS:
            driver.run(spec, compute_hyperparams(spec, 60), RngStream(0),
                       audit_level=audit_level)
        extra = {}
        for budget in (240, 960):
            params = compute_hyperparams(spec, budget)
            off, k_eps = self.retained(spec, params, "off")
            for audit_level in ("episode", "full"):
                logged, k_logged = self.retained(spec, params, audit_level)
                assert k_logged == k_eps
                extra[audit_level, budget] = (logged - off, k_eps)
        float_bytes = sys.getsizeof(0.0)
        for audit_level in ("episode", "full"):
            (small, k_small), (large, k_large) = (extra[audit_level, budget]
                                                  for budget in (240, 960))
            # 714 more steps; a per-step list would add kilobytes here
            assert large - small <= float_bytes * (k_large - k_small) + 1024, extra


class TestFullAuditMemory:
    """The full audit reads each Hessian as an O(d) form: at d = 1024 its
    traced peak stays within 64 d floats of an unaudited run's.  Both hold
    the learner's W, allocated once in ``init``; one dense H(z_n) is d^2
    floats (8 MB) there."""

    @staticmethod
    def peak(spec, params, audit_level):
        gc.collect()
        tracemalloc.start()
        try:
            driver.run(spec, params, RngStream(0), audit_level=audit_level)
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    def test_full_peak_is_the_off_peak_plus_o_of_d(self):
        spec = catalog("cosine_mixture", 1024)
        params = compute_hyperparams(spec, 40)
        off, full = (self.peak(spec, params, level) for level in ("off", "full"))
        assert full - off <= 64 * spec.dim * 8, (off, full)


class TestPsdCertificate:
    """The driver certifies A = B/2 + I/eta PSD from 1/eta - |B|_F/2 >= 0 and
    falls back to the minimum-eigenpair probe only when that bound fails."""

    def test_auto_parameters_never_probe(self, monkeypatch):
        def forbidden(*args, **kwargs):
            raise AssertionError("min_evec called under a PSD certificate")

        monkeypatch.setattr(trsolver, "min_evec", forbidden)
        steps = spy_steps(monkeypatch)
        for name, dim, budget in (("cosine_mixture", 8, 240), ("coupled_trig", 6, 120)):
            spec = catalog(name, dim)
            params = compute_hyperparams(spec, budget)
            steps.clear()
            report = driver.run(spec, params, RngStream(0), audit_level="full")
            assert report.totals["tr"]["branches"] == {"convex": params.m_total}
            assert report.totals["tr"]["krylov_starts"] == 0
            assert len(steps) == params.m_total
            assert {sol.start for _, sol, _ in steps} == {"caller"}
            assert report.audits["all_ok"]

    def test_large_eta_falls_back_to_the_probe(self, monkeypatch):
        calls = []

        def counting(*args, **kwargs):
            calls.append(1)
            return min_evec(*args, **kwargs)

        monkeypatch.setattr(trsolver, "min_evec", counting)
        steps = spy_steps(monkeypatch)
        spec = catalog("cosine_mixture", 8)
        auto = compute_hyperparams(spec, 240)
        params = dataclasses.replace(auto, eta=20.0 * auto.eta)
        report = driver.run(spec, params, RngStream(0), audit_level="full")
        assert 0 < len(calls) < params.m_total
        assert report.totals["gradients"] == 2 * params.m_total + params.k_eps + 1
        assert report.audits["all_ok"]
        # where min_evec ran, some probes start from the Krylov minimizer
        # rather than from delta_n; each is one solve's start
        starts = [sol.start for _, sol, _ in steps]
        assert len(starts) == params.m_total
        assert 0 < starts.count("krylov") == report.totals["tr"]["krylov_starts"] <= len(calls)


class TestEarlyExit:
    """Driver solves start the convex probe from the previous displacement."""

    def test_probe_saves_matvecs_at_unchanged_quality(self, monkeypatch):
        spec = catalog("coupled_trig", 16)
        params = compute_hyperparams(spec, 480)
        with monkeypatch.context() as spying:
            steps = spy_steps(spying)
            fast = driver.run(spec, params, RngStream(0), audit_level="full")
        # a probe that always declines leaves the fixed-budget path alone
        monkeypatch.setattr(trsolver, "fista_probe", lambda *args: (None, args[4], None, None))
        fixed = driver.run(spec, params, RngStream(0), audit_level="full")
        expected = 2 * params.m_total + params.k_eps + 1
        assert fast.totals["gradients"] == fixed.totals["gradients"] == expected
        assert fast.audits["all_ok"] and fixed.audits["all_ok"]
        assert fast.totals["matvecs"] < fixed.totals["matvecs"]
        assert fast.grad_norm_final == pytest.approx(fixed.grad_norm_final, rel=1e-5)
        assert fixed.totals["tr"]["early_exits"] == 0
        assert len(steps) == fast.totals["tr"]["solves"] == params.m_total
        exits = sum(sol.early_exit for _, sol, _ in steps)
        assert 0 < exits == fast.totals["tr"]["early_exits"]
        # a step derives its start product exactly when its learner round
        # was plain
        derived = sum(lrn is not None and lrn[1] for _, _, lrn in steps)
        assert derived == fast.totals["tr"]["start_products_derived"] == params.m_total - 1

    def test_start_product_changes_no_bit(self):
        # the driver's a_start replaces the probe's first matvec: each solve,
        # redone from the same subproblem without it, spends exactly one
        # more matvec, and returns the same bits when the step applied A; a
        # start product derived after a plain learner round differs from
        # that matvec by rounding, and so may the answer
        spec = catalog("coupled_trig", 16)
        params = compute_hyperparams(spec, 480)
        state = driver.init(spec, params)
        rng = RngStream(0)
        derived_steps = 0
        for _ in range(params.m_total):
            derived_before = state.totals["tr"]["start_products_derived"]
            p, sol = driver.step(state, spec, params, rng)
            derived = state.totals["tr"]["start_products_derived"] > derived_before
            derived_steps += derived
            # the auto parameters certify A PSD: the solve draws nothing
            redone = tr_solve(dataclasses.replace(p, a_start=None), RngStream(0))
            assert redone.matvecs_used == sol.matvecs_used + 1
            assert redone.early_exit == sol.early_exit and redone.n_accel == sol.n_accel
            if derived:
                np.testing.assert_allclose(redone.delta_vec, sol.delta_vec, rtol=0,
                                           atol=1e-14 * params.d_radius)
            else:
                np.testing.assert_array_equal(redone.delta_vec, sol.delta_vec)
                np.testing.assert_array_equal(redone.a_delta, sol.a_delta)
                assert redone.residual == sol.residual
        assert rng.draws == 0
        assert 0 < derived_steps < params.m_total


def perturbed(name, dim, seed=1, scale=0.3):
    """A catalog problem started off its diagonal: x0 + scale * N(0, I)."""
    spec = catalog(name, dim)
    noise = np.random.default_rng(seed).standard_normal(dim)
    return dataclasses.replace(spec, x0=spec.x0 + scale * noise)


def fingerprint(report):
    """Everything a run reports, as comparable values."""
    episodes = [tuple(v.tobytes() if isinstance(v, np.ndarray) else v
                      for v in dataclasses.astuple(ep)) for ep in report.episodes]
    return (report.grad_norm_final, report.w_hat.tobytes(), report.totals,
            report.audits, episodes)


def recipe(name, dim, budget, eta_factor):
    """Auto parameters with eta scaled by ``eta_factor``; the eta x200 recipe
    starts off the diagonal, where it reaches the regularized branches."""
    spec = perturbed(name, dim) if eta_factor > 1.0 else catalog(name, dim)
    auto = compute_hyperparams(spec, budget)
    return spec, dataclasses.replace(auto, eta=eta_factor * auto.eta)


RECIPES = [("coupled_trig", 16, 480, 1.0), ("cosine_mixture", 8, 240, 200.0)]


class TestStepBound:
    """The driver sizes each solve from |B|_F: b_bound bounds lambda_max(A)
    and the spread of A = B/2 + I/eta, lam_min_lower bounds lambda_min(A),
    and b_bound never exceeds the worst case max(2 L1, L1 + 1/eta).  Before
    the solve it needs A delta_n: it applies A at step 1 and after a learner
    round that is not plain, and otherwise derives the product from the last
    solve's A delta_{n+1}, which the solve hands back."""

    @pytest.mark.parametrize("name,dim,budget,eta_factor", RECIPES)
    def test_bounds_certify_every_subproblem(self, monkeypatch, name, dim, budget,
                                             eta_factor):
        spec, params = recipe(name, dim, budget, eta_factor)
        real_step = driver.step
        seen = []

        def spying_step(*args, **kwargs):
            p, sol = real_step(*args, **kwargs)
            evals = np.linalg.eigvalsh(p.a_op.dense())
            seen.append((p.b_bound, p.lam_min_lower, evals[0], evals[-1]))
            return p, sol

        monkeypatch.setattr(driver, "step", spying_step)
        report = driver.run(spec, params, RngStream(0), audit_level="full")
        worst = max(2.0 * spec.l1, spec.l1 + 1.0 / params.eta)
        assert len(seen) == params.m_total
        for b_bound, lam_lower, lam_min, lam_max in seen:
            rounding = 1e-12 * (abs(lam_min) + abs(lam_max))  # eigvalsh's
            assert b_bound >= lam_max - rounding
            assert b_bound >= lam_max - lam_min - rounding
            assert lam_lower <= lam_min + rounding
            assert b_bound <= worst
        assert min(b for b, *_ in seen) < worst
        # the run's every solve was one of the subproblems checked above
        assert report.totals["tr"]["solves"] == len(seen)
        assert report.audits["all_ok"]

    @pytest.mark.parametrize("name,dim,budget,eta_factor", RECIPES)
    def test_step_matvecs_are_the_solve_plus_one(self, name, dim, budget, eta_factor):
        # the learner adds its separation matvecs, none when certified; a
        # step that applies A costs one more matvec whether or not the solve
        # moved, and one that derives its start product costs none
        spec, params = recipe(name, dim, budget, eta_factor)
        state = driver.init(spec, params)
        rng = RngStream(0)
        kept = applied_steps = 0
        for n in range(1, params.m_total + 1):
            tr = state.totals["tr"]
            before = (state.matvec_counter.count, tr["matvecs"], tr["sep_matvecs"],
                      tr["start_products_derived"])
            delta_n = state.delta_vec
            driver.step(state, spec, params, rng)
            spent = state.matvec_counter.count - before[0]
            applied = 1 - (tr["start_products_derived"] - before[3])
            assert applied in (0, 1) and (n > 1 or applied == 1)
            assert spent == (tr["matvecs"] - before[1]) + (tr["sep_matvecs"] - before[2]) + applied
            kept += np.array_equal(state.delta_vec, delta_n)
            applied_steps += applied
        # the auto run certifies some steps where they stand; at eta x200 none
        assert (kept > 0) == (eta_factor == 1.0)
        # both recipes keep every learner round plain: only step 1 applies A
        assert applied_steps == 1



class TestNonconvexBranches:
    """Driver runs that reach the regularized trust-region branches: at eta
    200 times the automatic value, 1/eta no longer dominates |B|_F / 2, the
    PSD certificate fails and the eigenpair probe finds A indefinite."""

    @pytest.mark.parametrize("name,dim,branches,lanczos_rounds", [
        pytest.param("coupled_trig", 16, ("regularized_boundary", "regularized_interior"),
                     False, id="coupled_trig-16-branches0"),
        pytest.param("cosine_mixture", 8, ("regularized_boundary",), True,
                     id="cosine_mixture-8-branches1"),
    ])
    def test_regularized_branches_end_to_end(self, name, dim, branches, lanczos_rounds):
        spec = perturbed(name, dim)
        auto = compute_hyperparams(spec, 240)
        params = dataclasses.replace(auto, eta=200.0 * auto.eta)
        report = driver.run(spec, params, RngStream(0), audit_level="full")
        seen = report.totals["tr"]["branches"]
        assert all(seen.get(branch, 0) > 0 for branch in branches), seen
        # separation rounds: certified by |W|_F <= L1, or run through Lanczos
        tr = report.totals["tr"]
        assert 0 < tr["sep_certified"] <= tr["sep_calls"]
        assert (tr["sep_certified"] < tr["sep_calls"]) == lanczos_rounds
        assert sum(seen.values()) == report.totals["tr"]["solves"] == params.m_total
        assert report.totals["gradients"] == 2 * params.m_total + params.k_eps + 1
        assert report.audits["all_ok"], report.audits
        again = driver.run(spec, params, RngStream(0), audit_level="full")
        assert fingerprint(again) == fingerprint(report)


class TestBlasThreads:
    """A run's report does not depend on the BLAS thread count."""

    @staticmethod
    def _fingerprints(dim, budget, eta_factor):
        return stdout_per_blas_thread_count(
            "from oqn import driver\n"
            "from oqn.rng import RngStream\n"
            "from test_driver import fingerprint, recipe\n"
            f"spec, params = recipe('cosine_mixture', {dim}, {budget}, {eta_factor})\n"
            "report = driver.run(spec, params, RngStream(0), audit_level='full')\n"
            "print(repr(fingerprint(report)))\n")

    def test_report_bits_with_one_and_two_threads(self):
        # the eta x200 recipe reaches sep's Lanczos rounds, min_evec and the
        # regularized branch, so it runs every BLAS and LAPACK call on the
        # solve's and the learner's paths
        outs = self._fingerprints(8, 240, 200.0)
        assert outs[0] and outs[0] == outs[1]

    def test_audited_d128_report_bits_with_one_and_two_threads(self):
        # the benchmark's audited config (cosine_mixture d = 128, budget 480)
        # sums d^2 = 16,384 squares for the learner's and the ledger's
        # Frobenius norms, the length from which OpenBLAS splits a ddot
        # across threads
        outs = self._fingerprints(128, 480, 1.0)
        assert outs[0] and outs[0] == outs[1]


class TestSepCertificate:
    """With automatic parameters every separation call of a perturbed run is
    settled by |W|_F <= L1, and Lanczos would have answered the same."""

    def test_certified_rounds_agree_with_lanczos(self, monkeypatch):
        spec = perturbed("coupled_trig", 16)
        params = compute_hyperparams(spec, 240)
        lanczos_rng = RngStream(99)
        certified, rounds = [], []

        def spying_sep(w_op, l1, q, rng):
            res = sep(w_op, l1, q, rng)
            # the round's result and the run's random stream after it
            rounds.append((res.certified, rng.state()))
            if res.matvecs_used == 0:
                # what the Lanczos path alone would have read, at sep's budget
                d = w_op.dim
                fact = lanczos_factorize(SymOperator(w_op.dense(), Counter()),
                                         lanczos_rng.unit_vector(d), sep_budget(d, q))
                ritz = eigh_tridiagonal(*fact.tridiagonal())[0]
                assert float(np.max(np.abs(ritz))) <= l1
                certified.append(res)
            return res

        monkeypatch.setattr(hessian_learner, "sep", spying_sep)
        rng = RngStream(0)
        report = driver.run(spec, params, rng, audit_level="full")
        tr = report.totals["tr"]
        assert len(certified) == tr["sep_certified"] == tr["sep_calls"] > 0
        assert tr["sep_matvecs"] == 0
        assert rng.draws == 0
        assert len(rounds) == tr["sep_calls"]
        assert all(ok and state == (0, 0) for ok, state in rounds)
        assert report.totals["gradients"] == 2 * params.m_total + params.k_eps + 1
        assert report.audits["all_ok"], report.audits


class TestHintError:
    """The driver hands the learner its hint error r = g_n - h_n, which is
    the closing pair's residual y - B s, and folds |r|^2 as the pair's loss
    into the run's sum and into its episode's; the learner applies no
    operator of its own, so a round costs exactly its separation call."""

    @pytest.mark.parametrize("name,dim,eta_factor", [
        ("coupled_trig", 16, 1.0), ("cosine_mixture", 8, 200.0)])
    def test_residual_matches_dense_pair(self, monkeypatch, name, dim, eta_factor):
        spec = perturbed(name, dim)
        auto = compute_hyperparams(spec, 240)
        params = dataclasses.replace(auto, eta=eta_factor * auto.eta)
        real_step = driver.learner_step
        rounds = []

        def spying_step(lstate, r, s, rng):
            # the round writes W in place, so the played B is read first
            before, b = lstate.counter.count, lstate.b_op.dense()
            real_step(lstate, r, s, rng)
            spent = lstate.counter.count - before
            rounds.append((r.copy(), s, b, spent, lstate.sep))

        monkeypatch.setattr(driver, "learner_step", spying_step)
        state = driver.init(spec, params)
        log = driver.StepLog()
        rng = RngStream(0)
        checked = certified = 0
        losses, dense_sum = [], 0.0
        for _ in range(params.m_total):
            grad_z_prev, pending_s, hint = state.grad_z_prev, state.pending_s, state.hint
            g_n = spec.grad(state.x + 0.5 * state.delta_vec)
            driver.step(state, spec, params, rng, log=log)
            if pending_s is None:
                # the bootstrap step: its hint h_1 = grad f(x_0) predicts no
                # pair, so no round runs and no loss is logged for it
                assert np.array_equal(hint, spec.grad(spec.x0))
                assert rounds == [] and log.sum_loss == 0.0
                continue
            r, s, b, spent, sep_res = rounds.pop()
            assert s is pending_s
            # y = g_n - grad f(z_{n-1}) and B the action that built the hint
            expected = (g_n - grad_z_prev) - b @ s
            assert np.linalg.norm(r - expected) <= 1e-10 * np.linalg.norm(expected)
            # the pair's loss |y - B s|^2, formed by the driver alone: the
            # log's sum is the left fold of |r|^2 over the closed pairs
            losses.append(ddot(r, r))
            dense_sum += float(expected @ expected)
            assert log.sum_loss == left_fold(losses)
            assert log.sum_loss == pytest.approx(dense_sum, rel=3e-10)
            assert spent == sep_res.matvecs_used
            assert not sep_res.certified or spent == 0
            checked += 1
            certified += sep_res.certified
        assert checked == params.m_total - 1
        assert certified > 0
        # the eta x200 recipe also runs separation rounds through Lanczos
        assert (certified < checked) == (eta_factor > 1.0)
        # pair j's loss is episode ceil(j/T)'s: each record holds the left
        # fold of its own pairs, the last one's short by the pair its final
        # step would have closed
        t = params.t_len
        assert [ep.sum_loss for ep in state.episodes] \
            == [left_fold(losses[(k - 1) * t:k * t]) for k in range(1, params.k_eps + 1)]


class TestLearnerRecord:
    """A run keeps one learner record: ``init`` makes it and every round
    updates it in place, so the run builds W's operator once."""

    def test_lowdim_run_builds_one_operator(self, monkeypatch):
        spec = catalog("coupled_trig", 16)
        params = compute_hyperparams(spec, 480)
        real_build, real_init = hessian_learner.SymOperator, driver.init
        builds, made = [], []

        def counting_build(*args, **kwargs):
            builds.append(kwargs.get("fro"))
            return real_build(*args, **kwargs)

        def spying_init(*args):
            state = real_init(*args)
            made.append((state, state.b_state))
            return state

        monkeypatch.setattr(hessian_learner, "SymOperator", counting_build)
        monkeypatch.setattr(driver, "init", spying_init)
        report = driver.run(spec, params, RngStream(0), audit_level="off")
        (state, learner), = made
        # the one build is LearnerState.fresh's trusted zero
        assert builds == [0.0]
        assert state.b_state is learner
        assert report.totals["tr"]["sep_calls"] == params.m_total - 1 > 0


class TestWholePipeline:
    @pytest.mark.parametrize("name,dim", [
        ("cosine_mixture", 5), ("coupled_trig", 5), ("rosenbrock_local", 4)])
    def test_every_trig_family_end_to_end(self, name, dim):
        spec = catalog(name, dim)
        params = compute_hyperparams(spec, 80)
        report = driver.run(spec, params, RngStream(21), audit_level="full")
        assert report.audits["all_ok"], (name, report.audits)
        assert report.totals["gradients"] == 2 * params.m_total + params.k_eps + 1
        assert report.totals["tr"]["retries"] == 0

    def test_quadratic_family_end_to_end_manual(self):
        spec = catalog("quadratic", 5, seed=9)
        params = manual(0.5, 0.4 / spec.l1, 5, 6, delta_tr=1e-5)
        report = driver.run(spec, params, RngStream(21), audit_level="full")
        assert report.audits["all_ok"]

    def test_moderate_dimension_run(self):
        spec = catalog("cosine_mixture", 40)
        params = compute_hyperparams(spec, 60)
        report = driver.run(spec, params, RngStream(2), audit_level="episode")
        assert report.totals["gradients"] == 2 * params.m_total + params.k_eps + 1
        assert report.audits["regret_ok"]

    def test_tiny_budget_inflates_to_one_episode(self):
        # T exceeds the requested budget: one full episode still runs
        spec = catalog("cosine_mixture", 3)
        params = compute_hyperparams(spec, 1)
        assert params.k_eps == 1
        report = driver.run(spec, params, RngStream(0))
        assert len(report.episodes) == 1
        assert report.totals["gradients"] == 2 * params.m_total + 2

    def test_large_failure_budget_still_sound(self):
        spec = catalog("cosine_mixture", 4)
        params = compute_hyperparams(spec, 40, p_fail=0.5)
        report = driver.run(spec, params, RngStream(1), audit_level="full")
        assert report.audits["all_ok"]


class TestOgEquivalence:
    def test_trust_region_path_matches_explicit_projection(self, np_rng):
        # with the zero matrix the implicit update IS the explicit projection
        for t in range(15):
            d = int(np_rng.integers(1, 6))
            eta = float(np_rng.uniform(0.2, 2.0))
            d_rad = float(np_rng.uniform(0.1, 2.0))
            delta_prev = np_rng.standard_normal(d)
            delta_prev *= np_rng.uniform(0, d_rad) / max(np.linalg.norm(delta_prev), 1e-12)
            g, h, gz = (np_rng.standard_normal(d) for _ in range(3))
            a_op = SymOperator(np.eye(d) / eta, Counter())
            b = gz + g - h - delta_prev / eta
            delta_tr = 1e-7
            sol = tr_solve(TrustRegionSubproblem(
                a_op=a_op, b=b, radius=d_rad, delta=delta_tr, q=0.01,
                b_bound=1.0 / eta + 1.0), RngStream(123 + t))
            target = delta_prev - eta * gz - eta * (g - h)
            norm = np.linalg.norm(target)
            explicit = target if norm <= d_rad else target * (d_rad / norm)
            gap = np.linalg.norm(sol.delta_vec - explicit)
            assert gap <= delta_tr * max(1.0, eta) + 1e-9

    def test_og_run_counts_and_audits(self):
        spec = catalog("cosine_mixture", 4)
        params = compute_hyperparams(spec, 120)
        report = driver.run(spec, params, RngStream(7), method="og")
        assert report.totals["gradients"] == 2 * params.m_total + params.k_eps + 1
        assert report.totals["matvecs"] == 0
        assert report.audits["regret_ok"]
        assert report.audits["stationarity_ok"]

    def test_og_scalar_hand_trace(self):
        # explicit projection: clip(Delta1 - eta (grad_z + g1 - h1), D) = -0.1
        spec = scalar_quadratic()
        params = manual(0.1, 1.0, 1, 1)
        rng = RngStream(0)
        state = driver.init(spec, params)
        assert driver.og_step(state, spec, params, rng) is None
        assert state.delta_vec[0] == pytest.approx(-0.1)
        assert state.hint[0] == pytest.approx(0.85)


# the benchmark's driver configs: (family, d, budget, audit level)
BENCHMARK_CONFIGS = {
    "lowdim": ("coupled_trig", 16, 480, "off"),
    "highdim": ("cosine_mixture", 256, 120, "off"),
    "audited": ("cosine_mixture", 128, 480, "full"),
}


def single_point_oracle(spec):
    """``spec`` with its rows contract cleared, behind an oracle that
    refuses anything but one (d,) point; the returned list gets one entry
    per call."""
    calls = []
    grad = spec.grad

    def single_only(x):
        if x.ndim != 1:
            raise ValueError(f"a stack of shape {x.shape} reached a single-point oracle")
        calls.append(x.shape)
        return grad(x)

    return dataclasses.replace(spec, grad=single_only, grad_rows=False), calls


class TestGradRows:
    """A step's two points go to the oracle as one (2, d) stack.  A family
    that declares ``grad_rows`` evaluates it in one call, with the bits of
    two single calls, so no run output changes a bit; a spec that does not
    declare rows sees the stack as single calls, in row order."""

    @staticmethod
    def both_ways(spec, params, seed, **kwargs):
        assert spec.grad_rows
        stacked = driver.run(spec, params, RngStream(seed), **kwargs)
        single = driver.run(dataclasses.replace(spec, grad_rows=False), params,
                            RngStream(seed), **kwargs)
        return fingerprint(stacked), fingerprint(single)

    @pytest.mark.parametrize("seed", [0, 1])
    @pytest.mark.parametrize("config", sorted(BENCHMARK_CONFIGS))
    def test_benchmark_configs_keep_their_bits(self, config, seed):
        name, dim, budget, audit = BENCHMARK_CONFIGS[config]
        spec = catalog(name, dim)
        stacked, single = self.both_ways(spec, compute_hyperparams(spec, budget), seed,
                                         audit_level=audit)
        assert stacked == single

    @pytest.mark.parametrize("name,dim,budget,eta_factor,method", [
        ("rosenbrock_local", 8, 240, 1.0, "oqn"),
        ("cosine_mixture", 8, 240, 200.0, "oqn"),
        ("coupled_trig", 16, 240, 1.0, "og"),
    ], ids=["rosenbrock_d8", "eta_x200", "og"])
    def test_other_runs_keep_their_bits(self, name, dim, budget, eta_factor, method):
        spec, params = recipe(name, dim, budget, eta_factor)
        stacked, single = self.both_ways(spec, params, 0, audit_level="full", method=method)
        assert stacked == single

    def test_custom_oracle_sees_single_points(self):
        # an oracle that refuses a stack runs a full audited run on single
        # points: 2M + K + 1 calls, and the report of the catalog spec,
        # which takes the stacks, bit for bit
        spec, calls = single_point_oracle(catalog("cosine_mixture", 6))
        params = compute_hyperparams(spec, 120)
        report = driver.run(spec, params, RngStream(0), audit_level="full")
        assert len(calls) == params.gradient_total == report.totals["gradients"]
        assert report.audits["all_ok"]
        reference = driver.run(catalog("cosine_mixture", 6), params, RngStream(0),
                               audit_level="full")
        assert fingerprint(report) == fingerprint(reference)

    def test_quadratic_keeps_single_call_bits_at_d2(self):
        # a matrix oracle declares no rows: Q @ X on a (2, 2) stack would
        # return Q times the stack's transpose without raising, and X @ Q
        # rounds unlike Q @ x
        q_mat = np.array([[2.0, 0.3], [0.3, 0.7]])
        spec = quadratic_from_matrix(q_mat, x0=np.array([1.0, -2.0]))
        assert not spec.grad_rows
        points = np.array([[0.3, -1.1], [0.7, 0.2]])
        stacked = eval_gradient(spec, points, Counter())
        assert stacked.tobytes() == (q_mat @ points[0]).tobytes() + (q_mat @ points[1]).tobytes()
        params = manual(0.5, 0.4 / spec.l1, 5, 6, delta_tr=1e-5)
        plain = driver.run(spec, params, RngStream(0), audit_level="full")
        single, calls = single_point_oracle(spec)
        report = driver.run(single, params, RngStream(0), audit_level="full")
        assert len(calls) == params.gradient_total
        assert fingerprint(plain) == fingerprint(report)
        assert plain.audits["all_ok"]
