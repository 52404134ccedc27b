"""Acceptance criteria, one test per criterion, each printing a PASS line.

Criteria 1, 2, 3 and 9 run the oracle contract batteries of ``oqn.verify``
at full scale, the instances ``oqn verify --level full`` runs.  Criteria 4-7
share the audited runs from the session fixture (cosine mixture, d in
{4, 10}, budgets {120, 600}, three seeds).  Run with
``pytest tests/test_acceptance.py -v -s`` to see the per-criterion lines.
"""

import math
import time

import numpy as np

from conftest import spy_conversion
from oqn import driver, verify
from oqn.driver import compute_hyperparams
from oqn.eig import sep_budget
from oqn.problems import catalog
from oqn.rng import RngStream


def _report(line):
    print(f"\nACCEPTANCE {line}")


def _accept(criterion, battery):
    """Run one of verify's contract batteries at full scale (the acceptance
    instances), require every check to pass and print what it measured."""
    t0 = time.perf_counter()
    checks = battery(verify.SCALES["full"])
    failed = [c.name for c in checks if not c.passed]
    assert not failed, failed
    detail = " ".join(f"{c.name}({c.detail})" if c.detail else c.name for c in checks)
    _report(f"criterion {criterion}: PASS {detail} [{time.perf_counter() - t0:.1f}s]")


def test_criterion_1_trsolver_contract():
    """Definition-level trust-region contract on 500 seeded instances."""
    _accept("1 (trsolver contract, 500 instances)", verify.check_trsolver)


def test_criterion_2_minevec_sandwich():
    """Eigenvalue sandwich at q=0.05 plus the unconditional residual."""
    _accept("2 (minevec sandwich, 1000 trials)", verify.check_minevec)


def test_criterion_3_sep_contract():
    """Separation-oracle scaling at q=0.05 plus the exact separation check."""
    _accept("3 (sep contract, 1000 trials)", verify.check_sep)


def test_criterion_4_regret_inequality(criterion_runs):
    """Shifting-regret bound holds on every audited run."""
    worst = math.inf
    for spec, params, seed, report, _ in criterion_runs:
        a = report.audits
        assert a["regret_ok"], (spec.dim, params.m_total, seed)
        rel = a["regret_margin"] / max(abs(a["regret_rhs"]), 1e-300)
        worst = min(worst, rel)
    _report(f"criterion 4 (regret inequality, {len(criterion_runs)} runs): PASS "
            f"min relative margin={worst:.4f}")


def test_criterion_5_conversion_inequalities(criterion_runs, monkeypatch):
    """Per-step and per-episode conversion margins; exact quadratic identity."""
    for spec, params, seed, report, _ in criterion_runs:
        assert report.audits["conversion_step_ok"], (spec.dim, seed)
        assert report.audits["averaging_episode_ok"], (spec.dim, seed)
    qspec = catalog("quadratic", 6, seed=2)
    qparams = driver.HyperParams(
        d_radius=1.0, eta=0.5 / qspec.l1, t_len=10, k_eps=8,
        delta_tr=1e-5)
    steps = spy_conversion(monkeypatch)
    qreport = driver.run(qspec, qparams, RngStream(3), audit_level="full")
    assert len(steps) == qparams.m_total
    slack = qspec.l2 * qparams.d_radius**3 / 24.0
    worst_identity, worst_margin = 0.0, math.inf
    for x, delta, x_next in steps:
        f, f_next = qspec.value(x), qspec.value(x_next)
        gd = float(qspec.grad(x + 0.5 * delta) @ delta)
        scaled = abs(f - f_next + gd) / (1.0 + abs(f_next))
        worst_identity = max(worst_identity, scaled)
        worst_margin = min(worst_margin, f - f_next + gd + slack)
        assert scaled <= 1e-10
    # the audit's worst margin is the slack, up to the same identity error
    assert abs(qreport.audits["conversion_step_min_margin"] - worst_margin) \
        <= 1e-10 * (1.0 + max(abs(qspec.value(x)) for x, _, _ in steps))
    _report(f"criterion 5 (conversion inequalities): PASS "
            f"quadratic identity max={worst_identity:.2e}")


def test_criterion_6_comparator_bounds(criterion_runs):
    """Per-step Hessian-comparator bounds and the dynamic-regret ledger."""
    for spec, params, seed, report, _ in criterion_runs:
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
    for spec, params, seed, report, calls in criterion_runs:
        expected = 2 * params.m_total + params.k_eps + 1
        assert report.totals["gradients"] == expected
        d = spec.dim
        q = params.p_fail / (2.0 * params.m_total)
        d_rad, delta = params.d_radius, params.delta_tr
        sep_cap = sep_budget(d, q)
        tr = report.totals["tr"]
        assert len(calls["tr_solve"]) == tr["solves"] == params.m_total
        assert len(calls["sep"]) == tr["sep_calls"] == params.m_total - 1
        for b_bound, lambda_hat, matvecs in calls["tr_solve"]:
            # b_bound: the bound this solve was sized with
            lam = min(0.0, lambda_hat)
            lg = b_bound - lam
            budget = 4.0 * (
                math.sqrt(b_bound * d_rad / delta)
                * math.log(d * b_bound * d_rad / (q**2 * delta))
                + math.sqrt(lg * d_rad / delta))
            assert matvecs <= budget
            max_tr_frac = max(max_tr_frac, matvecs / budget)
        for matvecs in calls["sep"]:
            assert matvecs <= sep_cap
            max_sep = max(max_sep, matvecs)
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
    """Finite-difference cross-checks at 100 random points per problem, and
    the catalog's Lipschitz constants."""
    _accept("9 (oracle self-consistency)", verify.check_problems)
