"""Property batteries behind `oqn verify`: each check re-derives an invariant
with an independent oracle (dense eigensolvers, finite differences, exact
KKT solves) and reports a pass flag plus the observed margin."""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import driver, harness
from .eig import MinEvecCase, SepCase, min_evec, sep
from .errors import UnknownLevel
from .hessian_learner import LearnerState, default_rho, learner_step
from .linops import Counter, ShiftedOperator, SymOperator, dense_extreme_eig
from .problems import catalog, fd_check_gradient, fd_check_hessian
from .rng import RngStream
from .trsolver import EARLY_EXIT_RTOL, TrustRegionSubproblem, residual_of, tr_solve

SCALES = {
    "quick": dict(pairs=150, fd_points=20, trials=150, tr_instances=60,
                  learner_samples=150, run_dim=4, run_budget=120),
    "full": dict(pairs=1000, fd_points=100, trials=1000, tr_instances=500,
                 learner_samples=1000, run_dim=10, run_budget=1000),
}


def _sym(rng, d, scale=1.0):
    m = rng.uniform(-scale, scale, size=(d, d))
    return np.tril(m) + np.tril(m, -1).T


@dataclass
class CheckResult:
    name: str
    passed: bool
    detail: str = ""


def run_all(level: str = "quick", seed: int = 20240) -> list:
    """Execute the per-module property batteries at the requested scale."""
    if level not in SCALES:
        raise UnknownLevel(f"level must be one of {tuple(SCALES)}, got {level!r}")
    cfg = SCALES[level]
    rng = np.random.default_rng(seed)
    checks = []
    checks += _check_problems(rng, cfg)
    checks += _check_linops(rng, cfg)
    checks += _check_eig(rng, cfg, seed)
    checks += _check_trsolver(rng, cfg, seed)
    checks += _check_learner(rng, cfg, seed)
    checks += _check_driver(cfg, seed)
    return checks


def _check_problems(rng, cfg):
    out = []
    for name, dim in (("quadratic", 6), ("cosine_mixture", 6),
                      ("coupled_trig", 6), ("rosenbrock_local", 6)):
        spec = catalog(name, dim, seed=3)
        lo, hi = (-spec.box, spec.box) if spec.box else (-3.0, 3.0)
        worst_g = worst_h = 0.0
        for _ in range(cfg["fd_points"]):
            x = rng.uniform(lo, hi, size=dim)
            worst_g = max(worst_g, fd_check_gradient(spec, x))
            worst_h = max(worst_h, fd_check_hessian(spec, x))
        out.append(CheckResult(
            f"problems.fd.{name}", worst_g <= 1e-6 and worst_h <= 1e-4,
            f"grad_err={worst_g:.2e} hess_err={worst_h:.2e}"))
        viol = 0.0
        for _ in range(cfg["pairs"]):
            x = rng.uniform(lo, hi, size=dim)
            y = rng.uniform(lo, hi, size=dim)
            dist = np.linalg.norm(x - y)
            if dist == 0:
                continue
            gd = np.linalg.norm(spec.grad(x) - spec.grad(y))
            hd = np.linalg.norm(spec.hess(x) - spec.hess(y), ord=2)
            viol = max(viol, gd - spec.l1 * dist, hd - spec.l2 * dist)
        out.append(CheckResult(
            f"problems.lipschitz.{name}", viol <= 1e-9, f"violation={viol:.2e}"))
    return out


def _check_linops(rng, cfg):
    out = []
    d = 20
    counter = Counter()
    op = SymOperator(_sym(rng, d), counter)
    for _ in range(7):
        op.apply(rng.standard_normal(d))
    out.append(CheckResult(
        "linops.counter", counter.count == 7, f"count={counter.count}"))
    lam = 0.7
    base_min, base_max, _, _ = dense_extreme_eig(op)
    sh_min, sh_max, _, _ = dense_extreme_eig(ShiftedOperator(op, lam))
    err = max(abs(sh_min - (base_min - lam)), abs(sh_max - (base_max - lam)))
    out.append(CheckResult(
        "linops.shifted_spectrum", err <= 1e-9, f"err={err:.2e}"))
    return out


def _check_eig(rng, cfg, seed):
    out = []
    sandwich_hits = 0
    resid_ok = True
    budget_ok = True
    n_trials = cfg["trials"]
    for t in range(n_trials):
        d = int(rng.integers(2, 31))
        a = _sym(rng, d, scale=float(rng.uniform(0.5, 3.0)))
        op = SymOperator(a, Counter())
        lam_min, lam_max, _, _ = dense_extreme_eig(op)
        spread = max(lam_max - lam_min, 1e-12)
        delta = float(rng.uniform(0.02, 0.5)) * spread
        stream = RngStream(seed * 100003 + t)
        res = min_evec(op, delta, 0.05, spread, stream)
        if res.lambda_hat <= lam_min <= res.lambda_hat + delta:
            sandwich_hits += 1
        if res.case is MinEvecCase.NEGATIVE_EIG:
            resid = np.linalg.norm(a @ res.v_hat - res.lambda_hat * res.v_hat)
            resid_ok = resid_ok and resid <= delta
        budget_ok = budget_ok and res.matvecs_used <= d
    frac = sandwich_hits / n_trials
    out.append(CheckResult(
        "eig.minevec.sandwich", frac >= 0.95, f"fraction={frac:.3f}"))
    out.append(CheckResult("eig.minevec.residual", resid_ok))
    out.append(CheckResult("eig.minevec.budget", budget_ok))

    sep_scale_hits = 0
    sep_exact_ok = True
    sep_budget_ok = True
    sep_lanczos = 0
    # the Frobenius certificate: W rescaled to |W|_F < l1 must be answered
    # inside at no matvec and no draw, and be inside by a dense norm
    cert_hits = 0
    for t in range(n_trials):
        d = int(rng.integers(2, 31))
        l1 = float(rng.uniform(0.5, 2.0))
        w = _sym(rng, d, scale=float(rng.uniform(0.2, 3.0)))
        w_in = w * (l1 * (t + 1) / (n_trials + 1) / np.linalg.norm(w))
        stream = RngStream(seed * 99991 + t)
        res = sep(SymOperator(w_in, Counter()), l1, 0.05, stream)
        cert_hits += (res.case is SepCase.INSIDE_DOUBLED and res.matvecs_used == 0
                      and stream.draws == 0 and np.linalg.norm(w_in, ord=2) <= l1)
        op = SymOperator(w, Counter())
        res = sep(op, l1, 0.05, stream)
        sep_lanczos += res.matvecs_used > 0
        w_norm = np.linalg.norm(w, ord=2)
        if res.case is SepCase.INSIDE_DOUBLED:
            if w_norm <= 2.0 * l1:
                sep_scale_hits += 1
        else:
            if w_norm / res.gamma <= 2.0 * l1:
                sep_scale_hits += 1
            nuc = float(np.sum(np.abs(np.linalg.eigvalsh(res.s_mat))))
            lhs = float(np.vdot(res.s_mat, w)) - l1 * nuc
            sep_exact_ok = sep_exact_ok and lhs >= res.gamma - 1.0 - 1e-9
            sep_exact_ok = sep_exact_ok and np.linalg.norm(res.s_mat) <= 1.0 / l1 + 1e-10
        n_cap = min(d, math.ceil(0.5 * math.log(11.0 * d / 0.05**2) + 0.5))
        sep_budget_ok = sep_budget_ok and res.matvecs_used <= n_cap
    frac = sep_scale_hits / n_trials
    out.append(CheckResult(
        "eig.sep.scaling", frac >= 0.95,
        f"fraction={frac:.3f} lanczos_trials={sep_lanczos}/{n_trials}"))
    out.append(CheckResult("eig.sep.separation", sep_exact_ok))
    out.append(CheckResult("eig.sep.budget", sep_budget_ok))
    out.append(CheckResult(
        "eig.sep.frobenius_certificate", cert_hits == n_trials,
        f"certified_trials={cert_hits}/{n_trials}"))
    return out


def _check_trsolver(rng, cfg, seed):
    out = []
    sound_ok = True
    quality_ok = True
    alpha_ok = True
    worst_gap = -math.inf
    # regularized solves the probe certified; their residual is the original
    # problem's, from residual_of, so a fresh operator must reproduce it
    reg_exits = 0
    reg_exit_ok = True
    for t in range(cfg["tr_instances"]):
        d = int(rng.integers(2, 21))
        a = _sym(rng, d)
        b = rng.standard_normal(d)
        b *= rng.uniform(0, 5) / max(np.linalg.norm(b), 1e-12)
        d_rad = float(rng.choice([0.1, 1.0, 10.0]))
        delta = float(rng.choice([1e-2, 1e-4]))
        op = SymOperator(a, Counter())
        problem = TrustRegionSubproblem(
            a_op=op, b=b, radius=d_rad, delta=delta, q=0.01,
            b_bound=2.0 * op.frobenius_norm())
        sol = tr_solve(problem, RngStream(seed * 7919 + t))
        norm = np.linalg.norm(sol.delta_vec)
        sound_ok = sound_ok and norm <= d_rad + 1e-12 and sol.residual <= delta
        exact = harness.brute_tr(a, b, d_rad)
        gap = (harness.tr_objective(a, b, sol.delta_vec)
               - harness.tr_objective(a, b, exact))
        worst_gap = max(worst_gap, gap - delta * d_rad)
        quality_ok = quality_ok and gap <= delta * d_rad + 1e-9
        if sol.branch.value == "regularized_interior":
            alpha_ok = alpha_ok and abs(norm - d_rad) <= 1e-10 * d_rad
        if sol.early_exit and sol.branch.value == "regularized_boundary":
            reg_exits += 1
            reg_exit_ok = reg_exit_ok and sol.residual == residual_of(
                SymOperator(a, Counter()), b, d_rad, sol.delta_vec)
    out.append(CheckResult("trsolver.soundness", sound_ok))
    out.append(CheckResult(
        "trsolver.quality_vs_exact", quality_ok, f"worst_excess={worst_gap:.2e}"))
    out.append(CheckResult("trsolver.interior_alpha_exact", alpha_ok))
    out.append(CheckResult(
        "trsolver.regularized_early_exit", reg_exit_ok and reg_exits > 0,
        f"regularized_boundary_early_exits={reg_exits}/{cfg['tr_instances']}"))

    # convex instances certified by the caller: the probe's early answer has
    # residual <= sqrt(eps) delta, so convexity caps its excess at 2 D times
    # that, and its reported residual is the one residual_of recomputes
    exits = 0
    exit_ok = True
    worst_exit = -math.inf
    for t in range(cfg["tr_instances"]):
        d = int(rng.integers(2, 21))
        m = _sym(rng, d)
        shift = float(rng.uniform(0.05, 1.0))
        a = m @ m.T / d + shift * np.eye(d)
        b = rng.standard_normal(d)
        d_rad = float(rng.choice([0.1, 1.0, 10.0]))
        delta = float(rng.choice([1e-2, 1e-4]))
        op = SymOperator(a, Counter())
        problem = TrustRegionSubproblem(
            a_op=op, b=b, radius=d_rad, delta=delta, q=0.01,
            b_bound=2.0 * op.frobenius_norm(), lam_min_lower=shift)
        sol = tr_solve(problem, RngStream(seed * 7907 + t))
        if not sol.early_exit:
            continue
        exits += 1
        # the probe's own residual against an independent one-matvec check
        exit_ok = exit_ok and sol.residual == residual_of(
            SymOperator(a, Counter()), b, d_rad, sol.delta_vec)
        exact = harness.brute_tr(a, b, d_rad)
        excess = (harness.tr_objective(a, b, sol.delta_vec)
                  - harness.tr_objective(a, b, exact))
        bound = 2.0 * d_rad * EARLY_EXIT_RTOL * delta + 1e-12
        worst_exit = max(worst_exit, excess - bound)
        exit_ok = exit_ok and excess <= bound
    out.append(CheckResult(
        "trsolver.early_exit_quality", exit_ok and exits > 0,
        f"early_exits={exits}/{cfg['tr_instances']} worst_excess={worst_exit:.2e}"))
    return out


def _check_learner(rng, cfg, seed):
    out = []
    nuc_ok = True
    worst = -math.inf
    d_rad = 1.0
    for _ in range(cfg["learner_samples"]):
        d = int(rng.integers(2, 11))
        b = _sym(rng, d)
        s = rng.standard_normal(d)
        s *= rng.uniform(0, d_rad) / max(np.linalg.norm(s), 1e-12)
        y = rng.standard_normal(d)
        r = y - b @ s
        grad = -np.outer(r, s) - np.outer(s, r)
        nuc = float(np.sum(np.linalg.svd(grad, compute_uv=False)))
        bound = 2.0 * d_rad * math.sqrt(float(r @ r))
        worst = max(worst, nuc - bound)
        nuc_ok = nuc_ok and nuc <= bound + 1e-9
    out.append(CheckResult(
        "learner.nuclear_bound", nuc_ok, f"worst_excess={worst:.2e}"))

    # the learner builds its operators on trust (exactly symmetric W, norm
    # handed over); recheck both against the dense matrices.  l1 = 0.3 puts
    # part of the run in separated rounds, which build B = W / gamma
    feas_ok = trusted_ok = True
    separated = 0
    d = 6
    for l1 in (1.3, 0.3):
        state = LearnerState.fresh(d, l1, default_rho(d_rad), 0.01)
        stream = RngStream(seed + 17)
        for i in range(60):
            y = rng.standard_normal(d)
            s = rng.standard_normal(d)
            s *= d_rad / max(np.linalg.norm(s), 1e-12)
            state, audit = learner_step(state, y - state.b_mat @ s, s, stream)
            separated += audit.case is SepCase.SEPARATED
            feas_ok = feas_ok and np.linalg.norm(state.w_mat) <= math.sqrt(d) * l1 + 1e-9
            trusted_ok = (trusted_ok and np.array_equal(state.w_mat, state.w_mat.T)
                          and state.b_fro == np.linalg.norm(state.b_mat))
    out.append(CheckResult("learner.frobenius_feasible", feas_ok))
    out.append(CheckResult("learner.trusted_build", trusted_ok and separated > 0,
                           f"separated_rounds={separated}/120"))
    return out


def _check_driver(cfg, seed):
    out = []
    spec = catalog("cosine_mixture", cfg["run_dim"])
    params = driver.compute_hyperparams(spec, cfg["run_budget"])
    report = driver.run(spec, params, RngStream(seed), audit_level="full")
    expected = params.gradient_total
    out.append(CheckResult(
        "driver.gradient_count", report.totals["gradients"] == expected,
        f"{report.totals['gradients']} vs {expected}"))
    for key in ("conversion_step_ok", "averaging_episode_ok", "regret_ok",
                "stationarity_ok", "dynamic_regret_ok", "comparator_loss_ok",
                "comparator_path_ok", "fixed_point_ok"):
        if key in report.audits:
            out.append(CheckResult(f"driver.{key}", bool(report.audits[key])))
    return out
