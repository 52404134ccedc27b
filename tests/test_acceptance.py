"""Acceptance criteria, one test per criterion, each printing a PASS line.

Criteria 4-7 share the audited runs from the session fixture (cosine
mixture, d in {4, 10}, budgets {120, 600}, three seeds).  Run with
``pytest tests/test_acceptance.py -v -s`` to see the per-criterion lines.
"""

import math
import time

import numpy as np

from oqn import driver, harness
from oqn.driver import compute_hyperparams
from oqn.eig import MinEvecCase, SepCase, min_evec, sep
from oqn.linops import Counter, SymOperator, dense_extreme_eig
from oqn.problems import CATALOG_NAMES, catalog, fd_check_gradient, fd_check_hessian
from oqn.rng import RngStream
from oqn.trsolver import TrustRegionSubproblem, tr_solve

from conftest import random_symmetric


def _report(line):
    print(f"\nACCEPTANCE {line}")


def test_criterion_1_trsolver_contract():
    """Definition-level trust-region contract on 500 seeded instances."""
    t0 = time.perf_counter()
    rng = np.random.default_rng(1001)
    radii = [0.1, 1.0, 10.0]
    deltas = [1e-2, 1e-4]
    worst_resid_ratio = 0.0
    worst_excess = -math.inf
    for t in range(500):
        d = int(rng.integers(2, 21))
        a = random_symmetric(rng, d)
        b = rng.standard_normal(d)
        b *= rng.uniform(0.0, 5.0) / max(np.linalg.norm(b), 1e-12)
        d_rad = radii[t % 3]
        delta = deltas[(t // 3) % 2]
        op = SymOperator(a, Counter())
        problem = TrustRegionSubproblem(
            a_op=op, b=b, radius=d_rad, delta=delta, q=0.01,
            b_bound=2.0 * op.frobenius_norm() + 1e-9)
        sol = tr_solve(problem, RngStream(660_000 + t))
        assert np.linalg.norm(sol.delta_vec) <= d_rad + 1e-12
        assert sol.residual <= delta
        worst_resid_ratio = max(worst_resid_ratio, sol.residual / delta)
        exact = harness.brute_tr(a, b, d_rad)
        excess = (harness.tr_objective(a, b, sol.delta_vec)
                  - harness.tr_objective(a, b, exact) - delta * d_rad)
        worst_excess = max(worst_excess, excess)
        assert excess <= 1e-9
    _report(f"criterion 1 (trsolver contract, 500 instances): PASS "
            f"worst residual/delta={worst_resid_ratio:.3f} "
            f"worst objective excess={worst_excess:.2e} "
            f"[{time.perf_counter() - t0:.1f}s <= 60s]")


def test_criterion_2_minevec_sandwich():
    """Eigenvalue sandwich at q=0.05 plus the unconditional residual."""
    t0 = time.perf_counter()
    rng = np.random.default_rng(2002)
    hits = 0
    n_caseb = 0
    for t in range(1000):
        d = int(rng.integers(2, 41))
        a = random_symmetric(rng, d, scale=float(rng.uniform(0.3, 3.0)))
        op = SymOperator(a, Counter())
        lam_min, lam_max, _, _ = dense_extreme_eig(op)
        spread = max(lam_max - lam_min, 1e-9)
        delta = float(rng.uniform(0.02, 0.6)) * spread
        res = min_evec(op, delta, 0.05, spread, RngStream(7_700_000 + t))
        if res.lambda_hat <= lam_min <= res.lambda_hat + delta:
            hits += 1
        if res.case is MinEvecCase.NEGATIVE_EIG:
            n_caseb += 1
            resid = np.linalg.norm(a @ res.v_hat - res.lambda_hat * res.v_hat)
            assert resid <= delta, f"trial {t}: certificate residual {resid} > {delta}"
    frac = hits / 1000.0
    assert frac >= 0.95
    _report(f"criterion 2 (minevec sandwich): PASS fraction={frac:.4f} "
            f"caseb={n_caseb}/1000 with certificate residual 100% "
            f"[{time.perf_counter() - t0:.1f}s <= 30s]")


def test_criterion_3_sep_contract():
    """Separation-oracle scaling at q=0.05 plus the exact separation check."""
    t0 = time.perf_counter()
    rng = np.random.default_rng(3003)
    hits = 0
    n_case2 = 0
    for t in range(1000):
        d = int(rng.integers(2, 41))
        l1 = float(rng.uniform(0.4, 2.5))
        w = random_symmetric(rng, d, scale=float(rng.uniform(0.2, 4.0)))
        op = SymOperator(w, Counter())
        res = sep(op, l1, 0.05, RngStream(8_800_000 + t))
        w_norm = np.linalg.norm(w, ord=2)
        if res.case is SepCase.INSIDE_DOUBLED:
            hits += int(w_norm <= 2.0 * l1)
        else:
            n_case2 += 1
            hits += int(w_norm / res.gamma <= 2.0 * l1)
            nuclear = float(np.sum(np.abs(np.linalg.eigvalsh(res.s_mat))))
            sep_margin = float(np.vdot(res.s_mat, w)) - l1 * nuclear
            assert sep_margin >= res.gamma - 1.0 - 1e-9
            assert np.linalg.norm(res.s_mat) <= 1.0 / l1 + 1e-10
    frac = hits / 1000.0
    assert frac >= 0.95
    _report(f"criterion 3 (sep contract): PASS fraction={frac:.4f} "
            f"case2={n_case2}/1000 with exact separation 100% "
            f"[{time.perf_counter() - t0:.1f}s <= 30s]")


def test_criterion_4_regret_inequality(criterion_runs):
    """Shifting-regret bound holds on every audited run."""
    worst = math.inf
    for spec, params, seed, report in criterion_runs:
        a = report.audits
        assert a["regret_ok"], (spec.dim, params.m_total, seed)
        rel = a["regret_margin"] / max(abs(a["regret_rhs"]), 1e-300)
        worst = min(worst, rel)
    _report(f"criterion 4 (regret inequality, {len(criterion_runs)} runs): PASS "
            f"min relative margin={worst:.4f}")


def test_criterion_5_conversion_inequalities(criterion_runs):
    """Per-step and per-episode conversion margins; exact quadratic identity."""
    for spec, params, seed, report in criterion_runs:
        assert report.audits["conversion_step_ok"], (spec.dim, seed)
        assert report.audits["averaging_episode_ok"], (spec.dim, seed)
    qspec = catalog("quadratic", 6, seed=2)
    qparams = driver.HyperParams(
        d_radius=1.0, eta=0.5 / qspec.l1, t_len=10, k_eps=8,
        delta_tr=1e-5)
    qreport = driver.run(qspec, qparams, RngStream(3), audit_level="full")
    log = qreport.log
    worst_identity = 0.0
    for i, gd in enumerate(log.g_dot_delta):
        gap = abs(log.f_values[i] - log.f_values[i + 1] + gd)
        scaled = gap / (1.0 + abs(log.f_values[i + 1]))
        worst_identity = max(worst_identity, scaled)
        assert scaled <= 1e-10
    _report(f"criterion 5 (conversion inequalities): PASS "
            f"quadratic identity max={worst_identity:.2e}")


def test_criterion_6_comparator_bounds(criterion_runs):
    """Per-step Hessian-comparator bounds and the dynamic-regret ledger."""
    for spec, params, seed, report in criterion_runs:
        a = report.audits
        assert a["comparator_loss_ok"], (spec.dim, seed)
        assert a["comparator_path_ok"], (spec.dim, seed)
        assert a["dynamic_regret_ok"], (spec.dim, seed)
        assert report.params.p_fail == params.p_fail
    _report(f"criterion 6 (comparator bounds, {len(criterion_runs)} runs): PASS")


def test_criterion_7_counting_audits(criterion_runs):
    """Exact gradient totals; per-call matvec budgets for both oracles."""
    max_tr_frac = 0.0
    max_sep = 0
    for spec, params, seed, report in criterion_runs:
        expected = 2 * params.m_total + params.k_eps + 1
        assert report.totals["gradients"] == expected
        d = spec.dim
        q = params.p_fail / (2.0 * params.m_total)
        d_rad, delta = params.d_radius, params.delta_tr
        sep_budget = math.ceil(0.5 * math.log(11.0 * d / q**2) + 0.5)
        for ev in report.log.events:
            if ev["kind"] == "tr_solve":
                b_bound = ev["b_bound"]  # the bound this solve was sized with
                lam = min(0.0, ev["lambda_hat"])
                lg = b_bound - lam
                budget = 4.0 * (
                    math.sqrt(b_bound * d_rad / delta)
                    * math.log(d * b_bound * d_rad / (q**2 * delta))
                    + math.sqrt(lg * d_rad / delta))
                assert ev["matvecs"] <= budget
                max_tr_frac = max(max_tr_frac, ev["matvecs"] / budget)
            elif ev["kind"] == "sep":
                assert ev["matvecs"] <= sep_budget
                max_sep = max(max_sep, ev["matvecs"])
    # the frozen-matrix baseline obeys the same gradient ledger
    spec = catalog("cosine_mixture", 4)
    params = compute_hyperparams(spec, 120)
    og = driver.run(spec, params, RngStream(5), method="og")
    assert og.totals["gradients"] == 2 * params.m_total + params.k_eps + 1
    _report(f"criterion 7 (counting audits): PASS "
            f"max tr budget use={max_tr_frac:.3f} max sep matvecs={max_sep}")


def test_criterion_8_convergence_trend():
    """Best-episode gradient norm improves with budget; log-log slope."""
    t0 = time.perf_counter()
    spec = catalog("cosine_mixture", 8)
    budgets = [240, 480, 960, 1920]
    medians = []
    for budget in budgets:
        params = compute_hyperparams(spec, budget)
        vals = [
            driver.run(spec, params, RngStream(seed), audit_level="off").grad_norm_final
            for seed in range(5)
        ]
        medians.append(float(np.median(vals)))
    assert all(b <= a for a, b in zip(medians, medians[1:])), medians
    slope = float(np.polyfit(np.log(budgets), np.log(medians), 1)[0])
    assert slope <= -0.35
    _report(f"criterion 8 (convergence trend): PASS slope={slope:.3f} "
            f"medians={['%.2e' % m for m in medians]} "
            f"[{time.perf_counter() - t0:.1f}s <= 600s]")


def test_criterion_9_oracle_self_consistency():
    """Finite-difference cross-checks at 100 random points per problem."""
    rng = np.random.default_rng(9009)
    worst = {}
    for name in CATALOG_NAMES:
        spec = catalog(name, 6, seed=11)
        lo, hi = (-spec.box, spec.box) if spec.box else (-3.0, 3.0)
        wg = wh = 0.0
        for _ in range(100):
            x = rng.uniform(lo, hi, size=6)
            wg = max(wg, fd_check_gradient(spec, x, 1e-5))
            wh = max(wh, fd_check_hessian(spec, x, 1e-4))
        assert wg <= 1e-6, (name, wg)
        assert wh <= 1e-4, (name, wh)
        worst[name] = (wg, wh)
    detail = " ".join(f"{k}:{g:.1e}/{h:.1e}" for k, (g, h) in worst.items())
    _report(f"criterion 9 (oracle self-consistency): PASS {detail}")
