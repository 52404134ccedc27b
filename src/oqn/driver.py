"""Top-level optimizer: online-to-nonconvex conversion with an optimistic
quasi-Newton action update.

Each iteration plays a bounded displacement against the linear loss given by
the midpoint gradient, obtains the next displacement from an inexact
trust-region solve of the implicit optimistic update, and feeds the hint's
prediction error to the matrix learner.  Episodes of T iterations share one
comparator; the returned point is the best episode average.

Gradient schedule: the midpoint gradient of iteration n is evaluated at the
start of iteration n (it first becomes computable once the previous solve
fixed the displacement), which makes the loss pair of iteration n-1 complete
at that moment; the learner consumes it right there, before this iteration's
matrices are assembled.  The resulting tally is exactly one evaluation at
init, two per iteration, and one per episode close: 2M + K + 1 total, with
M - 1 realized loss pairs.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Optional

import numpy as np
from numpy.typing import NDArray

from .errors import MissingValueOracle, NoGapEstimate, StationaryStart, ZeroL2
from .hessian_learner import LearnerState, QuadLoss, default_rho, learner_step
# SymOperator is not built here any more; perfbench/tracing.py still wraps
# oqn.driver.SymOperator by name, so the import stays
from .linops import Counter, ShiftedOperator, SymOperator  # noqa: F401
from .problems import ObjectiveSpec, eval_gradient
from .rng import RngStream
from .trsolver import TrustRegionSubproblem, project_ball, tr_solve

STATIONARY_RTOL = 1e-14

AUDIT_LEVELS = ("off", "episode", "full")


@dataclass
class HyperParams:
    """Run geometry: trust radius D, optimism step eta, episode length T,
    episode count K, effective budget M = K*T, subproblem accuracy delta."""

    d_radius: float
    eta: float
    t_len: int
    k_eps: int
    m_total: int
    delta_tr: float
    p_fail: float = 0.01

    def __post_init__(self):
        if min(self.d_radius, self.eta, self.delta_tr) <= 0:
            raise ValueError("d_radius, eta and delta_tr must be positive")
        if self.t_len < 1 or self.k_eps < 1:
            raise ValueError("t_len and k_eps must be at least 1")
        if self.m_total != self.t_len * self.k_eps:
            raise ValueError("m_total must equal t_len * k_eps")
        if not (0.0 < self.p_fail < 1.0):
            raise ValueError("p_fail must be in (0,1)")


def compute_hyperparams(spec: ObjectiveSpec, m_budget: int, p_fail: float = 0.01,
                        gap_bound: Optional[float] = None) -> HyperParams:
    """Constant-explicit hyperparameters from the problem constants.

    D, eta come from the closed forms evaluated at M = m_budget; T is the
    rounded balance point, K = floor(m_budget / T), and the effective budget
    shrinks to K*T.  Requires l2 > 0 (quadratics need manual parameters) and
    an estimate of the initial optimality gap, either from the value oracle
    or a caller-supplied upper bound.
    """
    if m_budget < 1:
        raise ValueError("m_budget must be at least 1")
    if spec.l2 <= 0:
        raise ZeroL2("auto hyperparameters divide by l2; supply manual HyperParams")
    if gap_bound is not None:
        gap = float(gap_bound)
    elif spec.value is not None:
        gap = float(spec.value(spec.x0)) - spec.f_lower
    else:
        raise NoGapEstimate("need a value oracle at x0 or an explicit gap bound")
    if gap <= 0:
        raise NoGapEstimate(f"optimality-gap estimate must be positive, got {gap}")
    d, l1, l2 = spec.dim, spec.l1, spec.l2
    big_d = (gap / (52.0 * d**0.4 * l1**0.4 * l2**0.6 * m_budget)) ** (5.0 / 13.0)
    eta = (1.0 / (24.0 * d * l1 * l2 ** (2.0 / 3.0) * big_d ** (2.0 / 3.0))) ** 0.6
    t_real = 3.0 / (big_d * l2 * eta) ** (1.0 / 3.0)
    t_len = max(1, int(math.floor(t_real + 0.5)))
    k_eps = max(1, m_budget // t_len)
    return HyperParams(
        d_radius=big_d,
        eta=eta,
        t_len=t_len,
        k_eps=k_eps,
        m_total=t_len * k_eps,
        delta_tr=big_d / (eta * t_len),
        p_fail=p_fail,
    )


@dataclass
class EpisodeRecord:
    k: int
    w_bar: NDArray
    grad_norm_at_wbar: float
    u_k: NDArray
    episode_regret: float
    sum_g_norm: float
    sum_loss: float = 0.0
    cum_gradients: int = 0
    cum_matvecs: int = 0


@dataclass
class StepLog:
    """Per-run scalar series plus (at the full level) the vector series the
    whole-run inequality audits consume."""

    g_dot_delta: list = field(default_factory=list)
    f_values: list = field(default_factory=list)  # f(x_0), f(x_1), ...
    hint_gap_sq: list = field(default_factory=list)  # |g_n - h_n|^2
    pair_losses: list = field(default_factory=list)  # loss of pair n at index n-1
    grad_norms_w: list = field(default_factory=list)
    fp_gaps: list = field(default_factory=list)
    # full level only:
    g_vecs: list = field(default_factory=list)
    delta_vecs: list = field(default_factory=list)
    z_points: list = field(default_factory=list)
    y_vecs: list = field(default_factory=list)
    s_vecs: list = field(default_factory=list)
    events: list = field(default_factory=list)


@dataclass
class OqnState:
    x: NDArray
    delta_vec: NDArray
    hint: NDArray
    b_state: LearnerState
    grad_counter: Counter
    matvec_counter: Counter
    n: int = 0
    g_cached: Optional[NDArray] = None
    grad_z_prev: Optional[NDArray] = None
    pending_s: Optional[NDArray] = None
    ep_sum_w: Optional[NDArray] = None
    ep_sum_g: Optional[NDArray] = None
    ep_sum_gdotd: float = 0.0
    episodes: list = field(default_factory=list)
    f_prev: Optional[float] = None
    box_violations: int = 0
    tr_stats: dict = field(default_factory=lambda: {
        "solves": 0, "matvecs": 0, "max_residual": 0.0, "retries": 0,
        "branches": {}, "sep_calls": 0, "sep_matvecs": 0,
    })


@dataclass
class RunReport:
    episodes: list
    w_hat: NDArray
    grad_norm_final: float
    totals: dict
    audits: dict
    params: HyperParams
    method: str
    log: Optional[StepLog] = None
    stationary_start: bool = False


def init(spec: ObjectiveSpec, params: HyperParams,
         grad_counter: Optional[Counter] = None,
         matvec_counter: Optional[Counter] = None) -> OqnState:
    """Evaluate the start gradient (one evaluation) and set the first
    displacement to the scaled steepest-descent direction.

    Raises StationaryStart when the start gradient is below the machine-zero
    threshold; callers report that as a degenerate success.
    """
    grad_counter = grad_counter if grad_counter is not None else Counter()
    matvec_counter = matvec_counter if matvec_counter is not None else Counter()
    g0 = eval_gradient(spec, spec.x0, grad_counter)
    g0_norm = float(np.linalg.norm(g0))
    if g0_norm <= STATIONARY_RTOL * spec.l1:
        raise StationaryStart(g0_norm)
    delta1 = -params.d_radius * g0 / g0_norm
    b_state = LearnerState.fresh(
        dim=spec.dim, l1=spec.l1, rho=default_rho(params.d_radius),
        q_per_call=params.p_fail / (2.0 * params.m_total), counter=matvec_counter,
    )
    state = OqnState(
        x=spec.x0.copy(), delta_vec=delta1, hint=g0, b_state=b_state,
        grad_counter=grad_counter, matvec_counter=matvec_counter,
        ep_sum_w=np.zeros(spec.dim), ep_sum_g=np.zeros(spec.dim),
    )
    if spec.value is not None:
        state.f_prev = float(spec.value(spec.x0))
    return state


def step(state: OqnState, spec: ObjectiveSpec, params: HyperParams, rng: RngStream,
         log: Optional[StepLog] = None, full: bool = False,
         method: str = "oqn") -> None:
    """Run one iteration in place (two gradient evaluations, plus one more at
    an episode boundary).  ``method`` is "oqn" (trust-region solve plus
    matrix learner) or "og" (frozen zero matrix, explicit projected update).
    """
    n = state.n + 1
    d_rad, eta = params.d_radius, params.eta
    delta_n = state.delta_vec

    w_n = state.x + 0.5 * delta_n
    g_n = eval_gradient(spec, w_n, state.grad_counter)
    state.g_cached = g_n

    # the loss pair of iteration n-1 is complete now; learner closes it
    if state.pending_s is not None:
        pair = QuadLoss(g_n - state.grad_z_prev, state.pending_s)
        if method == "oqn":
            state.b_state, laudit = learner_step(state.b_state, pair, rng)
            pair_loss = laudit.loss
            state.tr_stats["sep_calls"] += 1
            state.tr_stats["sep_matvecs"] += laudit.sep_matvecs
            if log is not None and full:
                log.events.append({
                    "kind": "sep", "n": n - 1, "gamma": laudit.gamma,
                    "case": laudit.case.value, "matvecs": laudit.sep_matvecs,
                    "rng_state": rng.state(),
                })
        else:
            pair_loss = float(pair.y @ pair.y)  # zero matrix: loss is |y|^2
        if log is not None:
            log.pair_losses.append(pair_loss)
            if full:
                log.y_vecs.append(pair.y)
                log.s_vecs.append(pair.s)

    x_next = state.x + delta_n
    z_n = x_next + 0.5 * delta_n
    gz = eval_gradient(spec, z_n, state.grad_counter)

    # local-constant problems: flag (never abort) iterates leaving the box
    if spec.box is not None and float(np.max(np.abs(x_next))) > spec.box:
        state.box_violations += 1

    if method == "oqn":
        # A = B/2 + I/eta as a matrix-free view over the learner's operator;
        # |B|_op <= |B|_F makes 1/eta - |B|_F/2 a lower bound on lambda_min(A)
        b_op = state.b_state.b_op
        a_op = ShiftedOperator(b_op, -1.0 / eta, scale=0.5)
        b_delta = b_op.apply(delta_n)
        b_vec = gz + g_n - state.hint - 0.5 * b_delta - delta_n / eta
        problem = TrustRegionSubproblem(
            a_op=a_op, b=b_vec, radius=d_rad, delta=params.delta_tr,
            q=params.p_fail / (2.0 * params.m_total),
            b_bound=max(2.0 * spec.l1, spec.l1 + 1.0 / eta),
            lam_min_lower=1.0 / eta - 0.5 * state.b_state.b_fro,
        )
        sol = tr_solve(problem, rng)
        delta_next = sol.delta_vec
        state.tr_stats["solves"] += 1
        state.tr_stats["matvecs"] += sol.matvecs_used
        state.tr_stats["max_residual"] = max(state.tr_stats["max_residual"], sol.residual)
        state.tr_stats["retries"] += int(sol.retried)
        branch = sol.branch.value
        state.tr_stats["branches"][branch] = state.tr_stats["branches"].get(branch, 0) + 1
        # reuses the B delta_n product: one extra matvec for B delta_{n+1}
        b_delta_next = b_op.apply(delta_next)
        hint_next = gz + 0.5 * (b_delta_next - b_delta)
        if log is not None:
            if full:
                log.events.append({
                    "kind": "tr_solve", "n": n, "branch": branch,
                    "lambda_hat": sol.lambda_hat, "n_accel": sol.n_accel,
                    "matvecs": sol.matvecs_used, "residual": sol.residual,
                    "retried": sol.retried, "rng_state": rng.state(),
                })
                a_delta_next = 0.5 * b_delta_next + delta_next / eta
                fp = np.linalg.norm(delta_next - project_ball(
                    delta_next - eta * (a_delta_next + b_vec), d_rad))
                log.fp_gaps.append(float(fp))
    else:  # og baseline: zero matrix, explicit projected optimistic update
        hint_next = gz
        delta_next = project_ball(
            delta_n - eta * hint_next - eta * (g_n - state.hint), d_rad)

    if log is not None:
        log.g_dot_delta.append(float(g_n @ delta_n))
        log.hint_gap_sq.append(float(np.sum((g_n - state.hint) ** 2)))
        log.grad_norms_w.append(float(np.linalg.norm(g_n)))
        if spec.value is not None:
            log.f_values.append(float(spec.value(x_next)))
        if full:
            log.g_vecs.append(g_n)
            log.delta_vecs.append(delta_n)
            log.z_points.append(z_n)

    state.ep_sum_w += w_n
    state.ep_sum_g += g_n
    state.ep_sum_gdotd += float(g_n @ delta_n)

    if n % params.t_len == 0:
        t = params.t_len
        w_bar = state.ep_sum_w / t
        sum_g_norm = float(np.linalg.norm(state.ep_sum_g))
        if sum_g_norm == 0.0:
            u_k = np.zeros(spec.dim)
            regret = state.ep_sum_gdotd
        else:
            u_k = -d_rad * state.ep_sum_g / sum_g_norm
            regret = state.ep_sum_gdotd + d_rad * sum_g_norm
        g_bar = eval_gradient(spec, w_bar, state.grad_counter)
        state.episodes.append(EpisodeRecord(
            k=len(state.episodes) + 1, w_bar=w_bar,
            grad_norm_at_wbar=float(np.linalg.norm(g_bar)),
            u_k=u_k, episode_regret=regret, sum_g_norm=sum_g_norm,
            cum_gradients=state.grad_counter.count,
            cum_matvecs=state.matvec_counter.count,
        ))
        state.ep_sum_w = np.zeros(spec.dim)
        state.ep_sum_g = np.zeros(spec.dim)
        state.ep_sum_gdotd = 0.0

    state.pending_s = 0.5 * (delta_next - delta_n)
    state.grad_z_prev = gz
    state.x = x_next
    state.delta_vec = delta_next
    state.hint = hint_next
    state.n = n


def _stationary_report(spec: ObjectiveSpec, params: HyperParams, grad_norm: float,
                       method: str) -> RunReport:
    record = EpisodeRecord(
        k=1, w_bar=spec.x0.copy(), grad_norm_at_wbar=grad_norm,
        u_k=np.zeros(spec.dim), episode_regret=0.0, sum_g_norm=0.0,
    )
    return RunReport(
        episodes=[record], w_hat=spec.x0.copy(), grad_norm_final=grad_norm,
        totals={"gradients": 1, "matvecs": 0, "tr": {}},
        audits={}, params=params, method=method, stationary_start=True,
    )


def run(spec: ObjectiveSpec, params: HyperParams, rng: RngStream,
        audit_level: str = "episode", method: str = "oqn",
        eps_target: Optional[float] = None) -> RunReport:
    """Full run: init, M iterations, K episode closes, audits.

    ``eps_target`` optionally stops early once an episode average reaches the
    target gradient norm (off by default; the audited algorithm runs the
    fixed budget).
    """
    if audit_level not in AUDIT_LEVELS:
        raise ValueError(f"audit_level must be one of {AUDIT_LEVELS}")
    if method not in ("oqn", "og"):
        raise ValueError(f"method must be 'oqn' or 'og', got {method!r}")
    try:
        state = init(spec, params)
    except StationaryStart as exc:
        return _stationary_report(spec, params, exc.grad_norm, method)
    full = audit_level == "full"
    log = StepLog() if audit_level != "off" else None
    if log is not None and spec.value is not None:
        log.f_values.append(state.f_prev)

    stopped_early = False
    for _ in range(params.m_total):
        step(state, spec, params, rng, log=log, full=full, method=method)
        if (eps_target is not None and state.n % params.t_len == 0
                and state.episodes[-1].grad_norm_at_wbar <= eps_target):
            stopped_early = True
            break

    episodes = state.episodes
    if log is not None:
        _attach_episode_losses(episodes, log.pair_losses, params.t_len)
    best = min(episodes, key=lambda e: (e.grad_norm_at_wbar, e.k))
    totals = {
        "gradients": state.grad_counter.count,
        "matvecs": state.matvec_counter.count,
        "tr": dict(state.tr_stats),
        "iterations": state.n,
        "stopped_early": stopped_early,
        "box_violations": state.box_violations,
        "final_x": state.x,
        "final_delta": state.delta_vec,
    }
    report = RunReport(
        episodes=episodes, w_hat=best.w_bar, grad_norm_final=best.grad_norm_at_wbar,
        totals=totals, audits={}, params=params, method=method, log=log,
    )
    if not stopped_early:
        expected = 2 * params.m_total + params.k_eps + 1
        if state.grad_counter.count != expected:
            raise AssertionError(
                f"gradient accounting broken: {state.grad_counter.count} != {expected}")
    if log is not None:
        report.audits = audit_regret(report, spec, params)
    return report


def _attach_episode_losses(episodes: list, pair_losses: list, t_len: int) -> None:
    for ep in episodes:
        lo = (ep.k - 1) * t_len
        hi = min(ep.k * t_len, len(pair_losses))
        ep.sum_loss = float(sum(pair_losses[lo:hi]))


def audit_regret(report: RunReport, spec: ObjectiveSpec, params: HyperParams,
                 strict: bool = False) -> dict:
    """Evaluate both sides of the audited inequalities on the run log.

    Every entry reports (lhs, rhs, margin = rhs - lhs); margins must clear
    -1e-6 times the scale of the right-hand side.  Audits that need the
    value or Hessian oracle are skipped when the oracle is absent or the log
    lacks vectors; with ``strict`` the missing value oracle is an error
    instead (the decrease and stationarity audits cannot run without f).
    """
    log = report.log
    if log is None:
        raise ValueError("audit_regret needs a run log (audit_level episode or full)")
    if strict and spec.value is None:
        raise MissingValueOracle(
            "the function-decrease and stationarity audits need the value oracle")
    d_rad, eta, t_len = params.d_radius, params.eta, params.t_len
    k_eps = len(report.episodes)
    l2 = spec.l2
    audits: dict = {}

    # conversion inequality, per step: function decrease vs linear loss
    if log.f_values:
        slack = l2 * d_rad**3 / 48.0
        worst = math.inf
        worst_norm = math.inf
        for i, gd in enumerate(log.g_dot_delta):
            margin = log.f_values[i] - log.f_values[i + 1] + gd + slack
            worst = min(worst, margin)
            worst_norm = min(worst_norm,
                             margin + 1e-9 * (1.0 + abs(log.f_values[i + 1])))
        audits["conversion_step_min_margin"] = worst
        audits["conversion_step_ok"] = worst_norm >= 0.0

    # episode averaging inequality: grad at average vs averaged gradients
    ep_margins = [
        ep.sum_g_norm / t_len + 0.5 * l2 * t_len**2 * d_rad**2 - ep.grad_norm_at_wbar
        for ep in report.episodes
    ]
    audits["averaging_episode_min_margin"] = min(ep_margins) if ep_margins else 0.0
    audits["averaging_episode_ok"] = all(m >= -1e-9 for m in ep_margins)

    # shifting-regret inequality over the whole run
    regret = sum(ep.episode_regret for ep in report.episodes)
    sum_pair_losses = float(sum(log.pair_losses))
    rhs_regret = (4.0 * k_eps * d_rad**2 / eta
                  + 1.5 * eta * sum_pair_losses
                  + 2.0 * d_rad * k_eps * t_len * params.delta_tr)
    audits["regret_lhs"] = regret
    audits["regret_rhs"] = rhs_regret
    audits["regret_margin"] = rhs_regret - regret
    audits["regret_ok"] = regret <= rhs_regret + 1e-6 * abs(rhs_regret)
    # variant including the bootstrap hint error of the first iteration
    rhs_hint = (4.0 * k_eps * d_rad**2 / eta
                + 1.5 * eta * float(sum(log.hint_gap_sq))
                + 2.0 * d_rad * k_eps * t_len * params.delta_tr)
    audits["regret_rhs_hint_variant"] = rhs_hint

    # stationarity bound at the episode averages
    if log.f_values:
        gap = log.f_values[0] - spec.f_lower
        lhs = sum(ep.grad_norm_at_wbar for ep in report.episodes) / k_eps
        rhs = (gap / (d_rad * k_eps * t_len) + regret / (d_rad * k_eps * t_len)
               + l2 * d_rad**2 / 48.0 + 0.5 * l2 * t_len**2 * d_rad**2)
        audits["stationarity_lhs"] = lhs
        audits["stationarity_rhs"] = rhs
        audits["stationarity_margin"] = rhs - lhs
        audits["stationarity_ok"] = lhs <= rhs + 1e-6 * abs(rhs)

    # dynamic-regret ledger against the true Hessian comparator
    if spec.hess is not None and log.z_points and log.y_vecs:
        h_mats = [spec.hess(z) for z in log.z_points]
        n_pairs = len(log.y_vecs)
        comp_losses = []
        path = 0.0
        max_comp_loss = 0.0
        max_path_step = 0.0
        for i in range(n_pairs):
            r = log.y_vecs[i] - h_mats[i] @ log.s_vecs[i]
            comp_losses.append(float(r @ r))
            max_comp_loss = max(max_comp_loss, comp_losses[-1])
            step_len = float(np.linalg.norm(h_mats[i + 1] - h_mats[i]))
            path += step_len
            max_path_step = max(max_path_step, step_len)
        sqrt_d = math.sqrt(spec.dim)
        rhs_dyn = (16.0 * d_rad**2 * float(np.linalg.norm(h_mats[0])) ** 2
                   + 2.0 * sum(comp_losses)
                   + 64.0 * spec.l1 * d_rad**2 * sqrt_d * path)
        audits["dynamic_regret_lhs"] = sum_pair_losses
        audits["dynamic_regret_rhs"] = rhs_dyn
        audits["dynamic_regret_ok"] = (
            sum_pair_losses <= rhs_dyn + 1e-6 * abs(rhs_dyn))
        audits["comparator_loss_max"] = max_comp_loss
        audits["comparator_loss_bound"] = l2**2 * d_rad**4 / 4.0
        audits["comparator_loss_ok"] = (
            max_comp_loss <= l2**2 * d_rad**4 / 4.0 + 1e-9)
        audits["comparator_path_max"] = max_path_step
        audits["comparator_path_bound"] = 2.0 * l2 * sqrt_d * d_rad
        audits["comparator_path_ok"] = (
            max_path_step <= 2.0 * l2 * sqrt_d * d_rad + 1e-9)

    # fixed-point form of the implicit update
    if log.fp_gaps:
        audits["fixed_point_max_gap"] = max(log.fp_gaps)
        audits["fixed_point_bound"] = eta * params.delta_tr
        audits["fixed_point_ok"] = (
            max(log.fp_gaps) <= eta * params.delta_tr * (1.0 + 1e-9) + 1e-12)

    audits["all_ok"] = all(v for k, v in audits.items() if k.endswith("_ok"))
    return audits
