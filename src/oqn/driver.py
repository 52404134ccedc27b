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
matrices are assembled.  Its input is the hint error r = g_n - h_n, formed
once per step: the hint predicted the pair's y with B s, so r = y - B s is
also the pair's logged loss.  The resulting tally is exactly one evaluation
at init, two per iteration, and one per episode close: 2M + K + 1 total,
with M - 1 realized loss pairs.

Matvec schedule: a step needs the trust-region matrix A = B/2 + I/eta at the
previous displacement delta_n.  That product feeds the linear term, the
solve's start product and the hint's B-correction; the solve hands back its
product at the new displacement, which gives the rest of that correction and
the fixed-point audit, and the state keeps it for the next step.  After a
plain learner round (see ``LearnerState.plain``) the new A differs from the
one that product was taken with by (rho/2)(r s' + s r'), so the step derives
A delta_n from the kept product with two dot products and two axpys
(Byrd, Nocedal & Schnabel 1994), equal up to rounding; only the first step
and a step after any other round apply A.  A step therefore costs the
solve's matvecs, plus one when it applied A, besides the learner's
separation call, which is free when certified.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Optional

import numpy as np
from numpy.typing import NDArray
from scipy.linalg.blas import daxpy, ddot

from .errors import InvalidArgument, StationaryStart
from .hessian_learner import LearnerState, default_rho, learner_step
# SymOperator is not built here any more; perfbench/tracing.py still wraps
# oqn.driver.SymOperator by name, so the import stays
from .linops import Counter, SymOperator  # noqa: F401
from .problems import ObjectiveSpec, eval_gradient
from .rng import RngStream
from .trsolver import TRSolution, TrustRegionSubproblem, project_ball, tr_solve

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
    delta_tr: float
    p_fail: float = 0.01

    def __post_init__(self):
        if not all(0.0 < v < math.inf for v in (self.d_radius, self.eta, self.delta_tr)):
            raise InvalidArgument("d_radius, eta and delta_tr must be positive and finite")
        if not all(isinstance(v, (int, np.integer)) and v >= 1
                   for v in (self.t_len, self.k_eps)):
            raise InvalidArgument("t_len and k_eps must be at least 1 and integral")
        if not (0.0 < self.p_fail < 1.0):
            raise InvalidArgument("p_fail must be in (0,1)")

    @property
    def m_total(self) -> int:
        return self.t_len * self.k_eps

    @property
    def q_per_call(self) -> float:
        """Failure probability allowed to one randomized oracle call."""
        return self.p_fail / (2.0 * self.m_total)

    @property
    def gradient_total(self) -> int:
        """Gradient evaluations of a full run: 2M + K + 1."""
        return 2 * self.m_total + self.k_eps + 1


def compute_hyperparams(spec: ObjectiveSpec, m_budget: int, p_fail: float = 0.01,
                        gap_bound: Optional[float] = None) -> HyperParams:
    """Constant-explicit hyperparameters from the problem constants.

    D, eta come from the closed forms evaluated at M = m_budget; T is the
    rounded balance point, K = floor(m_budget / T), and the effective budget
    shrinks to K*T.  Requires l2 > 0 (quadratics need manual parameters) and
    an estimate of the initial optimality gap, either from the value oracle
    or a caller-supplied upper bound.
    """
    if not isinstance(m_budget, (int, np.integer)) or m_budget < 1:
        raise InvalidArgument("m_budget must be at least 1 and integral")
    if spec.l2 <= 0:
        raise InvalidArgument("auto hyperparameters divide by l2; supply manual HyperParams")
    if gap_bound is not None:
        gap = float(gap_bound)
    elif spec.value is not None:
        gap = float(spec.value(spec.x0)) - spec.f_lower
    else:
        raise InvalidArgument("need a value oracle at x0 or an explicit gap bound")
    if not 0.0 < gap < math.inf:
        raise InvalidArgument(f"optimality-gap estimate must be positive and finite, got {gap}")
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
        delta_tr=big_d / (eta * t_len),
        p_fail=p_fail,
    )


@dataclass
class EpisodeRecord:
    k: int
    w_bar: NDArray
    grad_norm_at_wbar: float
    episode_regret: float
    sum_g_norm: float
    sum_loss: float = 0.0
    cum_gradients: int = 0
    cum_matvecs: int = 0


@dataclass
class StepLog:
    """Per-run scalar series the whole-run inequality audits consume.  The
    Hessian-comparator ledger (full level, Hessian oracle present) is folded
    as the run goes: one Hessian per step, only the previous one kept.
    ``full`` selects the full level: the ledger, the events and the
    fixed-point gaps."""

    full: bool = False
    g_dot_delta: list = field(default_factory=list)
    f_values: list = field(default_factory=list)  # f(x_0), f(x_1), ...
    hint_gap_first: float = 0.0  # |g_1 - h_1|^2, the bootstrap hint error
    pair_losses: list = field(default_factory=list)  # loss of pair n at index n-1
    fp_gaps: list = field(default_factory=list)
    # full level only:
    comparator_losses: list = field(default_factory=list)  # |y - H(z_n) s|^2 of pair n
    comparator_path: list = field(default_factory=list)  # |H(z_{n+1}) - H(z_n)|_F
    hess_fro_first: Optional[float] = None  # |H(z_1)|_F
    events: list = field(default_factory=list)


def new_totals() -> dict:
    """A run's totals, all zero: gradient and matvec counts, the
    trust-region and separation tallies under "tr" (with the solves whose
    start product was derived from the last one, not applied), iterations,
    whether ``eps_target`` stopped the run, and box exits."""
    return {
        "gradients": 0, "matvecs": 0,
        "tr": {"solves": 0, "matvecs": 0, "max_residual": 0.0, "retries": 0,
               "early_exits": 0, "branches": {}, "sep_calls": 0, "sep_matvecs": 0,
               "sep_certified": 0, "start_products_derived": 0},
        "iterations": 0, "stopped_early": False, "box_violations": 0,
    }


@dataclass
class OqnState:
    x: NDArray
    delta_vec: NDArray
    hint: NDArray
    b_state: LearnerState
    grad_counter: Counter
    matvec_counter: Counter
    n: int = 0
    grad_z_prev: Optional[NDArray] = None
    pending_s: Optional[NDArray] = None
    hess_z_prev: Optional[NDArray] = None  # full level: H(z_{n-1}) for the ledger
    a_delta: Optional[NDArray] = None  # the last solve's A delta_vec, A as it played
    ep_sum_w: Optional[NDArray] = None
    ep_sum_g: Optional[NDArray] = None
    ep_sum_gdotd: float = 0.0
    episodes: list = field(default_factory=list)
    totals: dict = field(default_factory=new_totals)


@dataclass
class RunReport:
    episodes: list
    w_hat: NDArray
    grad_norm_final: float
    totals: dict
    audits: dict
    params: HyperParams
    log: Optional[StepLog] = None
    stationary_start: bool = False


def check_eps_target(eps_target: Optional[float]) -> None:
    """An ``eps_target`` is None (off) or positive and finite."""
    if eps_target is not None and not 0.0 < eps_target < math.inf:
        raise InvalidArgument(f"eps_target must be positive and finite, got {eps_target}")


def init(spec: ObjectiveSpec, params: HyperParams) -> OqnState:
    """Evaluate the start gradient (one evaluation) and set the first
    displacement to the scaled steepest-descent direction.

    Raises StationaryStart when the start gradient is below the machine-zero
    threshold; callers report that as a degenerate success.
    """
    grad_counter = Counter()
    matvec_counter = Counter()
    g0 = eval_gradient(spec, spec.x0, grad_counter)
    g0_norm = float(np.linalg.norm(g0))
    if g0_norm <= STATIONARY_RTOL * spec.l1:
        raise StationaryStart(g0_norm)
    delta1 = -params.d_radius * g0 / g0_norm
    b_state = LearnerState.fresh(
        dim=spec.dim, l1=spec.l1, rho=default_rho(params.d_radius),
        q_per_call=params.q_per_call, counter=matvec_counter,
    )
    return OqnState(
        x=spec.x0.copy(), delta_vec=delta1, hint=g0, b_state=b_state,
        grad_counter=grad_counter, matvec_counter=matvec_counter,
        ep_sum_w=np.zeros(spec.dim), ep_sum_g=np.zeros(spec.dim),
    )


def step(state: OqnState, spec: ObjectiveSpec, params: HyperParams, rng: RngStream,
         log: Optional[StepLog] = None,
         method: str = "oqn") -> Optional[tuple[TrustRegionSubproblem, TRSolution]]:
    """Run one iteration in place (two gradient evaluations, plus one more at
    an episode boundary).  ``method`` is "oqn" (trust-region solve plus
    matrix learner) or "og" (frozen zero matrix, explicit projected update).
    Returns the subproblem the step solved and its solution, or None for
    "og"; the subproblem's operator is a view of the learner's W, so it is
    valid until the next step's learner round writes W in place.
    """
    n = state.n + 1
    full = log is not None and log.full
    ledger = full and spec.hess is not None
    tr = state.totals["tr"]
    d_rad, eta = params.d_radius, params.eta
    delta_n = state.delta_vec

    w_n = state.x + 0.5 * delta_n
    g_n = eval_gradient(spec, w_n, state.grad_counter)

    # the loss pair of iteration n-1 is complete now; learner closes it with
    # the hint error, which is that pair's residual y - B s (for "og", B = 0
    # and r = y), and |r|^2 is the pair's loss
    r = g_n - state.hint
    if log is not None:
        loss = float(r @ r)
        if state.pending_s is None:
            log.hint_gap_first = loss
        else:
            log.pair_losses.append(loss)
    plain = False  # the learner round moved B by exactly rho (r s' + s r')
    if state.pending_s is not None:
        if method == "oqn":
            played = state.b_state.sep
            learner_step(state.b_state, r, state.pending_s, rng)
            plain, new_sep = state.b_state.plain, state.b_state.sep
            tr["sep_calls"] += 1
            tr["sep_matvecs"] += new_sep.matvecs_used
            tr["sep_certified"] += int(new_sep.certified)
            if full:
                # the round's scaling and case, and the call that closed it
                log.events.append({
                    "kind": "sep", "n": n - 1, "gamma": played.gamma,
                    "case": played.case.value, "matvecs": new_sep.matvecs_used,
                    "certified": new_sep.certified, "rng_state": rng.state(),
                })
        if ledger:
            r_comp = (g_n - state.grad_z_prev) - state.hess_z_prev @ state.pending_s
            log.comparator_losses.append(float(r_comp @ r_comp))

    x_next = state.x + delta_n
    z_n = x_next + 0.5 * delta_n
    gz = eval_gradient(spec, z_n, state.grad_counter)

    # local-constant problems: flag (never abort) iterates leaving the box
    if spec.box is not None and float(np.max(np.abs(x_next))) > spec.box:
        state.totals["box_violations"] += 1

    if method == "oqn":
        # A = B/2 + I/eta as a view over the learner's operator.
        # The learner keeps |B|_op <= 2 L1, so m = min(2 L1, |B|_F) >= |B|_op:
        # lambda_max(A) <= 1/eta + m/2, spread(A) = spread(B)/2 <= m and
        # lambda_min(A) >= 1/eta - |B|_F/2, all free of matvecs
        b_fro = state.b_state.b_fro
        a_op = state.b_state.b_op.shifted(-1.0 / eta, scale=0.5)
        if plain:
            # A moved by (rho/2)(r s' + s r'): carry the last solve's product
            # at delta_n over, into a copy, as that solution still holds it
            s, half_rho = state.pending_s, 0.5 * state.b_state.rho
            a_delta = daxpy(r, state.a_delta.copy(), a=half_rho * ddot(s, delta_n))
            a_delta = daxpy(s, a_delta, a=half_rho * ddot(r, delta_n))
            tr["start_products_derived"] += 1
        else:
            a_delta = a_op.apply(delta_n)
        b_vec = gz + r - a_delta
        m = min(2.0 * spec.l1, b_fro)
        problem = TrustRegionSubproblem(
            a_op=a_op, b=b_vec, radius=d_rad, delta=params.delta_tr,
            q=params.q_per_call,
            b_bound=max(m, 1.0 / eta + 0.5 * m),
            lam_min_lower=1.0 / eta - 0.5 * b_fro,
            x_start=delta_n,
            a_start=a_delta,
        )
        sol = tr_solve(problem, rng)
        delta_next = sol.delta_vec
        tr["solves"] += 1
        tr["matvecs"] += sol.matvecs_used
        tr["max_residual"] = max(tr["max_residual"], sol.residual)
        tr["retries"] += int(sol.retried)
        tr["early_exits"] += int(sol.early_exit)
        branch = sol.branch.value
        tr["branches"][branch] = tr["branches"].get(branch, 0) + 1
        # B/2 (delta_{n+1} - delta_n) from the two products of A, the solve's
        # at delta_{n+1} and this step's at delta_n: no matvec of its own
        hint_next = gz + (sol.a_delta - a_delta) - (delta_next - delta_n) / eta
        if full:
            log.events.append({
                "kind": "tr_solve", "n": n, "branch": branch,
                "b_bound": problem.b_bound,
                "lambda_hat": sol.lambda_hat, "n_accel": sol.n_accel,
                "matvecs": sol.matvecs_used, "residual": sol.residual,
                "retried": sol.retried, "early_exit": sol.early_exit,
                "start_product": "derived" if plain else "applied",
                "rng_state": rng.state(),
            })
            fp = np.linalg.norm(delta_next - project_ball(
                delta_next - eta * (sol.a_delta + b_vec), d_rad))
            log.fp_gaps.append(float(fp))
        state.a_delta = sol.a_delta
        solved = (problem, sol)
    else:  # og baseline: zero matrix, explicit projected optimistic update
        solved = None
        hint_next = gz
        delta_next = project_ball(
            delta_n - eta * hint_next - eta * r, d_rad)

    g_dot_delta = float(g_n @ delta_n)
    if log is not None:
        log.g_dot_delta.append(g_dot_delta)
        if spec.value is not None:
            log.f_values.append(float(spec.value(x_next)))
    if ledger:
        hess_z = spec.hess(z_n)
        if state.hess_z_prev is None:
            log.hess_fro_first = float(np.linalg.norm(hess_z))
        else:
            log.comparator_path.append(float(np.linalg.norm(hess_z - state.hess_z_prev)))
        state.hess_z_prev = hess_z

    state.ep_sum_w += w_n
    state.ep_sum_g += g_n
    state.ep_sum_gdotd += g_dot_delta

    if n % params.t_len == 0:
        t = params.t_len
        w_bar = state.ep_sum_w / t
        sum_g_norm = float(np.linalg.norm(state.ep_sum_g))
        # the comparator u_k = -D sum(g)/|sum(g)| attains D |sum(g)|
        regret = state.ep_sum_gdotd + d_rad * sum_g_norm
        g_bar = eval_gradient(spec, w_bar, state.grad_counter)
        state.episodes.append(EpisodeRecord(
            k=len(state.episodes) + 1, w_bar=w_bar,
            grad_norm_at_wbar=float(np.linalg.norm(g_bar)),
            episode_regret=regret, sum_g_norm=sum_g_norm,
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
    return solved


def _stationary_report(spec: ObjectiveSpec, params: HyperParams,
                       grad_norm: float) -> RunReport:
    record = EpisodeRecord(
        k=1, w_bar=spec.x0.copy(), grad_norm_at_wbar=grad_norm,
        episode_regret=0.0, sum_g_norm=0.0,
    )
    totals = new_totals()
    totals["gradients"] = 1
    return RunReport(
        episodes=[record], w_hat=spec.x0.copy(), grad_norm_final=grad_norm,
        totals=totals, audits={}, params=params, stationary_start=True,
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
        raise InvalidArgument(f"audit_level must be one of {AUDIT_LEVELS}")
    if method not in ("oqn", "og"):
        raise InvalidArgument(f"method must be 'oqn' or 'og', got {method!r}")
    check_eps_target(eps_target)
    try:
        state = init(spec, params)
    except StationaryStart as exc:
        return _stationary_report(spec, params, exc.grad_norm)
    log = StepLog(full=audit_level == "full") if audit_level != "off" else None
    if log is not None and spec.value is not None:
        log.f_values.append(float(spec.value(spec.x0)))

    stopped_early = False
    for _ in range(params.m_total):
        step(state, spec, params, rng, log=log, method=method)
        if (eps_target is not None and state.n % params.t_len == 0
                and state.episodes[-1].grad_norm_at_wbar <= eps_target):
            stopped_early = True
            break

    episodes = state.episodes
    if log is not None:
        _attach_episode_losses(episodes, log.pair_losses, params.t_len)
    best = min(episodes, key=lambda e: (e.grad_norm_at_wbar, e.k))
    state.totals.update(gradients=state.grad_counter.count,
                        matvecs=state.matvec_counter.count,
                        iterations=state.n, stopped_early=stopped_early)
    report = RunReport(
        episodes=episodes, w_hat=best.w_bar, grad_norm_final=best.grad_norm_at_wbar,
        totals=state.totals, audits={}, params=params, log=log,
    )
    # two evaluations per iteration, one per episode close, one at init: on
    # a full run that is params.gradient_total, and it holds on a stopped one
    expected = 2 * state.n + len(episodes) + 1
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


def audit_regret(report: RunReport, spec: ObjectiveSpec, params: HyperParams) -> dict:
    """Evaluate both sides of the audited inequalities on the run log.

    Each audit reports its sides or its worst margin, and an ``_ok`` flag
    with its own tolerance: lhs <= rhs + 1e-6 |rhs| for regret, stationarity
    and the dynamic-regret ledger; an absolute 1e-9 for episode averaging and
    the comparator loss and path; gap <= (1 + 1e-9) eta delta + 1e-12 for the
    fixed point; and margin >= -1e-9 (1 + |f(x_{n+1})|) per conversion step.
    Audits that need the value or Hessian oracle are skipped when the
    oracle is absent or the log holds no comparator ledger.  The
    dynamic-regret audit only sums and maxes the ledger's scalars; ``step``
    evaluated the Hessians.

    The conversion slack is the midpoint rule's error.  Along
    phi(t) = f(x + t delta), phi'' is (L2 |delta|^3)-Lipschitz, and
    expanding phi' around t = 1/2 gives

        phi(1) - phi(0) - phi'(1/2)
            = int_0^1 int_{1/2}^t (phi''(s) - phi''(1/2)) ds dt,

    whose inner integral is at most L2 |delta|^3 (t - 1/2)^2 / 2 in absolute
    value; integrating over t gives L2 |delta|^3 / 24.  So, with |delta| <= D,
    f(x) - f(x + delta) + <grad f(x + delta/2), delta> >= -L2 D^3 / 24, and a
    cubic whose phi'' has slope L2 |delta|^3 attains it.  Summed over the M
    steps and divided by D M, the slack is the L2 D^2 / 24 term of the
    stationarity bound.
    """
    log = report.log
    if log is None:
        raise InvalidArgument("audit_regret needs a run log (audit_level episode or full)")
    d_rad, eta, t_len = params.d_radius, params.eta, params.t_len
    k_eps = len(report.episodes)
    l2 = spec.l2
    audits: dict = {}

    # conversion inequality, per step: function decrease vs linear loss, with
    # the midpoint rule's slack L2 D^3 / 24 (derived in the docstring)
    if log.f_values:
        slack = l2 * d_rad**3 / 24.0
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
                + 1.5 * eta * (log.hint_gap_first + sum_pair_losses)
                + 2.0 * d_rad * k_eps * t_len * params.delta_tr)
    audits["regret_rhs_hint_variant"] = rhs_hint

    # stationarity bound at the episode averages
    if log.f_values:
        gap = log.f_values[0] - spec.f_lower
        lhs = sum(ep.grad_norm_at_wbar for ep in report.episodes) / k_eps
        rhs = (gap / (d_rad * k_eps * t_len) + regret / (d_rad * k_eps * t_len)
               + l2 * d_rad**2 / 24.0 + 0.5 * l2 * t_len**2 * d_rad**2)
        audits["stationarity_lhs"] = lhs
        audits["stationarity_rhs"] = rhs
        audits["stationarity_margin"] = rhs - lhs
        audits["stationarity_ok"] = lhs <= rhs + 1e-6 * abs(rhs)

    # dynamic-regret ledger against the true Hessian comparator
    if log.comparator_losses:
        max_comp_loss = max(log.comparator_losses)
        max_path_step = max(log.comparator_path)
        sqrt_d = math.sqrt(spec.dim)
        rhs_dyn = (16.0 * d_rad**2 * log.hess_fro_first ** 2
                   + 2.0 * sum(log.comparator_losses)
                   + 64.0 * spec.l1 * d_rad**2 * sqrt_d * sum(log.comparator_path))
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
