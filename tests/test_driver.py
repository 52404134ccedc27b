import dataclasses

import numpy as np
import pytest

from oqn import driver, trsolver
from oqn.eig import min_evec
from oqn.driver import HyperParams, compute_hyperparams
from oqn.errors import NoGapEstimate, StationaryStart, ZeroL2
from oqn.linops import Counter, SymOperator
from oqn.problems import ObjectiveSpec, catalog, quadratic_from_matrix
from oqn.rng import RngStream
from oqn.trsolver import TrustRegionSubproblem, tr_solve


def scalar_quadratic(x0=1.0):
    return quadratic_from_matrix(np.eye(1), x0=np.array([x0]))


def manual(d_radius, eta, t_len, k_eps, delta_tr=1e-8, p_fail=0.01):
    return HyperParams(d_radius=d_radius, eta=eta, t_len=t_len, k_eps=k_eps,
                       m_total=t_len * k_eps, delta_tr=delta_tr, p_fail=p_fail)


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
        with pytest.raises(ZeroL2):
            compute_hyperparams(spec, 100)

    def test_missing_gap_rejected(self):
        spec = ObjectiveSpec(dim=2, grad=lambda x: x, l1=1.0, l2=1.0,
                             f_lower=0.0, x0=np.ones(2))
        with pytest.raises(NoGapEstimate):
            compute_hyperparams(spec, 100)


class TestInit:
    def test_first_displacement_is_scaled_steepest_descent(self):
        spec = quadratic_from_matrix(np.eye(2), x0=np.array([1.0, 0.0]))
        params = manual(0.1, 1.0, 1, 1)
        state = driver.init(spec, params)
        np.testing.assert_allclose(state.delta_vec, [-0.1, 0.0])
        np.testing.assert_allclose(state.hint, [1.0, 0.0])
        assert state.grad_counter.count == 1

    def test_stationary_start_raises(self):
        spec = quadratic_from_matrix(np.eye(2), x0=np.zeros(2))
        with pytest.raises(StationaryStart):
            driver.init(spec, manual(0.1, 1.0, 1, 1))

    def test_stationary_start_run_degenerates_gracefully(self):
        spec = quadratic_from_matrix(np.eye(2), x0=np.zeros(2))
        report = driver.run(spec, manual(0.1, 1.0, 1, 1), RngStream(0))
        assert report.stationary_start
        assert report.totals["gradients"] == 1
        assert report.grad_norm_final <= 1e-14


class TestStepHandTrace:
    def test_clipped_boundary_trace(self):
        # f = x^2/2, x0 = 1, D = 0.1, eta = 1: the first trust-region solve
        # clips the unconstrained step to the boundary
        spec = scalar_quadratic()
        params = manual(0.1, 1.0, 1, 1, delta_tr=1e-6)
        state = driver.init(spec, params)
        driver.step(state, spec, params, RngStream(0))
        assert state.x[0] == pytest.approx(0.9)
        assert state.g_cached[0] == pytest.approx(0.95)
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
        driver.step(state, spec, params, RngStream(0))
        assert state.x[0] == pytest.approx(-4.0)
        assert state.g_cached[0] == pytest.approx(-1.5)
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
        # reconstruct h_{n+1} from the pieces the update used; exact match
        spec = catalog("cosine_mixture", 3)
        params = manual(0.05, 0.3, 2, 2, delta_tr=1e-4)
        state = driver.init(spec, params)
        rng = RngStream(9)
        for _ in range(3):
            b_before = state.b_state.b_mat.copy()
            delta_before = state.delta_vec.copy()
            driver.step(state, spec, params, rng)
            rebuilt = state.grad_z_prev + 0.5 * b_before @ (state.delta_vec - delta_before)
            np.testing.assert_array_equal(state.hint, rebuilt)


class TestRun:
    def test_cosine_budget_and_counts(self):
        spec = catalog("cosine_mixture", 4)
        params = compute_hyperparams(spec, 120)
        assert params.m_total <= 120
        report = driver.run(spec, params, RngStream(7))
        assert report.totals["gradients"] == 2 * params.m_total + params.k_eps + 1
        assert len(report.episodes) == params.k_eps

    def test_quadratic_manual_monotone_episodes(self):
        # convex instance where the averaged-iterate gradient norms decay
        spec = catalog("quadratic", 6, seed=2)
        params = manual(1.0, 0.5 / spec.l1, 10, 8, delta_tr=1e-5)
        report = driver.run(spec, params, RngStream(3), audit_level="full")
        norms = [e.grad_norm_at_wbar for e in report.episodes]
        assert all(b <= a * (1 + 1e-12) for a, b in zip(norms, norms[1:]))
        # quadratic midpoint identity: decrease equals the linear loss exactly
        log = report.log
        for i, gd in enumerate(log.g_dot_delta):
            gap = log.f_values[i] - log.f_values[i + 1] + gd
            assert abs(gap) <= 1e-10 * (1.0 + abs(log.f_values[i + 1]))

    def test_single_step_episode_regret_is_cauchy_schwarz_gap(self):
        spec = catalog("cosine_mixture", 3)
        params = manual(0.05, 0.3, 1, 1, delta_tr=1e-4)
        report = driver.run(spec, params, RngStream(4), audit_level="full")
        ep = report.episodes[0]
        g1 = report.log.g_vecs[0]
        d1 = report.log.delta_vecs[0]
        expected = float(g1 @ d1) + params.d_radius * np.linalg.norm(g1)
        assert ep.episode_regret == pytest.approx(expected, rel=1e-12)
        assert ep.episode_regret >= -1e-12

    def test_audits_pass_on_small_run(self):
        spec = catalog("cosine_mixture", 4)
        params = compute_hyperparams(spec, 60)
        report = driver.run(spec, params, RngStream(11), audit_level="full")
        assert report.audits["all_ok"]

    def test_strict_audit_requires_value_oracle(self):
        from oqn.errors import MissingValueOracle

        base = catalog("cosine_mixture", 3)
        spec = ObjectiveSpec(dim=3, grad=base.grad, l1=base.l1, l2=base.l2,
                             f_lower=0.0, x0=base.x0)
        params = manual(0.05, 0.3, 2, 2, delta_tr=1e-4)
        report = driver.run(spec, params, RngStream(1), audit_level="full")
        assert "conversion_step_min_margin" not in report.audits
        assert report.audits["regret_ok"]
        with pytest.raises(MissingValueOracle):
            driver.audit_regret(report, spec, params, strict=True)

    def test_ties_broken_by_earliest_episode(self):
        spec = catalog("cosine_mixture", 4)
        params = compute_hyperparams(spec, 60)
        report = driver.run(spec, params, RngStream(2))
        best = min(e.grad_norm_at_wbar for e in report.episodes)
        first = next(e for e in report.episodes if e.grad_norm_at_wbar == best)
        np.testing.assert_array_equal(report.w_hat, first.w_bar)

    def test_box_violations_flagged_not_fatal(self):
        # shrink the validity box so the very first iterates leave it;
        # the run completes and reports the violations
        spec = catalog("rosenbrock_local", 4, box=0.5)
        params = manual(0.05, 1e-4, 2, 2, delta_tr=1e-3)
        report = driver.run(spec, params, RngStream(0))
        assert report.totals["box_violations"] > 0
        assert report.totals["gradients"] == 2 * params.m_total + params.k_eps + 1

    def test_eps_target_early_exit(self):
        spec = catalog("cosine_mixture", 4)
        params = compute_hyperparams(spec, 120)
        report = driver.run(spec, params, RngStream(7), eps_target=0.5)
        assert report.totals["stopped_early"]
        assert report.grad_norm_final <= 0.5
        assert len(report.episodes) < params.k_eps


class TestPsdCertificate:
    """The driver certifies A = B/2 + I/eta PSD from 1/eta - |B|_F/2 >= 0 and
    falls back to the minimum-eigenpair probe only when that bound fails."""

    def test_auto_parameters_never_probe(self, monkeypatch):
        def forbidden(*args, **kwargs):
            raise AssertionError("min_evec called under a PSD certificate")

        monkeypatch.setattr(trsolver, "min_evec", forbidden)
        for name, dim, budget in (("cosine_mixture", 8, 240), ("coupled_trig", 6, 120)):
            spec = catalog(name, dim)
            params = compute_hyperparams(spec, budget)
            report = driver.run(spec, params, RngStream(0), audit_level="full")
            assert report.totals["tr"]["branches"] == {"convex": params.m_total}
            assert report.audits["all_ok"]

    def test_large_eta_falls_back_to_the_probe(self, monkeypatch):
        calls = []

        def counting(*args, **kwargs):
            calls.append(1)
            return min_evec(*args, **kwargs)

        monkeypatch.setattr(trsolver, "min_evec", counting)
        spec = catalog("cosine_mixture", 8)
        auto = compute_hyperparams(spec, 240)
        params = dataclasses.replace(auto, eta=20.0 * auto.eta)
        report = driver.run(spec, params, RngStream(0), audit_level="full")
        assert 0 < len(calls) < params.m_total
        assert report.totals["gradients"] == 2 * params.m_total + params.k_eps + 1
        assert report.audits["all_ok"]


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
        driver.step(state, spec, params, rng, method="og")
        assert state.delta_vec[0] == pytest.approx(-0.1)
        assert state.hint[0] == pytest.approx(0.85)
