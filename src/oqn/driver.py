"""Top-level optimizer: online-to-nonconvex conversion with an optimistic
quasi-Newton action update.

Each iteration plays a bounded displacement against the linear loss given by
the midpoint gradient, obtains the next displacement from an inexact
trust-region solve of the implicit optimistic update, and feeds the hint's
prediction error to the matrix learner.  Episodes of T iterations share one
comparator; the returned point is the best episode average.

``run`` drives ``step``, one iteration of that loop, or ``og_step``, one of
the frozen-matrix optimistic baseline, which shares all of it but the move;
``run_gd`` is plain gradient descent.  Each returns a ``RunReport``.

Gradient schedule: the midpoint gradient of iteration n is evaluated at the
start of iteration n (it first becomes computable once the previous solve
fixed the displacement), which makes the loss pair of iteration n-1 complete
at that moment; the learner consumes it right there, before this iteration's
matrices are assembled.  Its input is the hint error r = g_n - h_n, formed
once per step: the hint predicted the pair's y with B s, so r = y - B s is
also the pair's logged loss.  The hint point z_n = x_{n+1} + delta_n/2 is
known at the same moment, so both gradients come from one oracle call on
the (2, d) stack (w_n, z_n); a spec that does not declare ``grad_rows``
sees it as two single calls, in that order.  The resulting tally is exactly
one evaluation at init, two per iteration, and one per episode close:
2M + K + 1 total, in M + K + 1 calls of ``eval_gradient``, with M - 1
realized loss pairs.

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

Comparator ledger (``audit_level="full"``, on a spec that states
``ObjectiveSpec.hess_at``): each step takes the Hessian at z_n as a form and
reads three things from it: the product H(z_{n-1}) s,
|H(z_n) - H(z_{n-1})|_F and |H(z_1)|_F.  A catalog form holds O(d) data, so
the full audit allocates no d x d matrix per step.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass, field
from typing import Optional

import numpy as np
from numpy.typing import NDArray
from scipy.linalg.blas import daxpy, ddot

from .errors import (InvalidArgument, check_int_at_least, check_one_of, check_open_unit,
                     check_positive)
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
        for key in ("d_radius", "eta", "delta_tr"):
            check_positive(key, getattr(self, key))
        for key in ("t_len", "k_eps"):
            check_int_at_least(key, getattr(self, key), 1)
        check_open_unit("p_fail", self.p_fail)

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

    def document(self) -> dict:
        """A report's ``params`` block: every field and M."""
        return {**asdict(self), "m_total": self.m_total}


@dataclass
class GdParams:
    """Gradient descent's run: ``steps`` steps of length ``step_size``."""

    step_size: float
    steps: int

    def __post_init__(self):
        check_positive("step_size", self.step_size)
        check_int_at_least("steps", self.steps, 1)

    def document(self) -> dict:
        """A report's ``params`` block: both fields."""
        return asdict(self)


def compute_hyperparams(spec: ObjectiveSpec, m_budget: int, p_fail: float = 0.01,
                        gap_bound: Optional[float] = None) -> HyperParams:
    """Constant-explicit hyperparameters from the problem constants.

    D, eta come from the closed forms evaluated at M = m_budget; T is the
    rounded balance point and K = max(1, floor(m_budget / T)), so the run
    takes M = K*T steps: at most m_budget when T <= m_budget, and T, more
    than the budget, when m_budget < T.  Requires l2 > 0 (quadratics need
    manual parameters) and an estimate of the initial optimality gap, either
    from the value oracle or a caller-supplied upper bound.
    """
    check_int_at_least("m_budget", m_budget, 1)
    if spec.l2 <= 0:
        raise InvalidArgument("auto hyperparameters divide by l2; supply manual HyperParams")
    if gap_bound is not None:
        gap = float(gap_bound)
    elif spec.value is not None:
        gap = float(spec.value(spec.x0)) - spec.f_lower
    else:
        raise InvalidArgument("need a value oracle at x0 or an explicit gap bound")
    check_positive("optimality-gap estimate", gap)
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
    """One closed episode: |grad f| at its average (kept for the best one only,
    as w_hat), regret, |sum g|, pair losses (None unlogged) and run counts."""

    k: int
    grad_norm_at_wbar: float
    episode_regret: float
    sum_g_norm: float
    sum_loss: Optional[float] = None
    cum_gradients: int = 0
    cum_matvecs: int = 0


@dataclass
class StepLog:
    """What the audits read, folded into scalars as each step closes, so it
    does not grow with the budget.  Each sum is a ``+=`` in step order, bit
    for bit ``sum()`` of a list on Python 3.11 (3.12's ``sum()`` uses Neumaier
    compensation; the fold keeps the bits on every version).  ``run`` seeds
    ``f_start`` and ``f_last`` with f(x_0) given a value oracle; only a
    seeded log folds conversion margins.  ``full`` adds the fixed-point gap
    and, with a Hessian oracle, the comparator ledger: one Hessian form per
    step, read through its ``matvec`` and ``fro`` (the module docstring),
    the last kept.  A max is None, its audit skipped, before its first term."""

    full: bool = False
    f_start: Optional[float] = None
    f_last: Optional[float] = None
    conversion_min_margin: float = math.inf  # f(x_n) - f(x_{n+1}) + <g_n, delta_n> + slack
    conversion_min_tolerated: float = math.inf  # margin + 1e-9 (1 + |f(x_{n+1})|)
    sum_loss: float = 0.0  # |r|^2 of every closed pair, not the episodes' sums
    fixed_point_max_gap: Optional[float] = None
    comparator_loss_sum: float = 0.0  # |y - H(z_n) s|^2 of pair n
    comparator_loss_max: Optional[float] = None
    comparator_path_sum: float = 0.0  # |H(z_{n+1}) - H(z_n)|_F
    comparator_path_max: Optional[float] = None
    hess_fro_first: Optional[float] = None  # |H(z_1)|_F


def new_totals() -> dict:
    """A run's totals, all zero: gradient and matvec counts, the
    trust-region and separation tallies under "tr" (with the solves whose
    start product was derived from the last one, not applied, and the solves
    whose probe started from the Krylov minimizer instead of delta_n),
    iterations, whether ``eps_target`` stopped the run, and box exits."""
    return {
        "gradients": 0, "matvecs": 0,
        "tr": {"solves": 0, "matvecs": 0, "max_residual": 0.0, "retries": 0,
               "early_exits": 0, "branches": {}, "sep_calls": 0, "sep_matvecs": 0,
               "sep_certified": 0, "start_products_derived": 0, "krylov_starts": 0},
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
    hess_z_prev: Optional[object] = None  # full level: H(z_{n-1})'s form, for the ledger
    a_delta: Optional[NDArray] = None  # the last solve's A delta_vec, A as it played
    ep_sum_w: Optional[NDArray] = None
    ep_sum_g: Optional[NDArray] = None
    ep_sum_gdotd: float = 0.0
    ep_sum_loss: float = 0.0
    episodes: list = field(default_factory=list)
    best: Optional[tuple] = None  # (|grad f(w_bar)|, w_bar), first best episode so far
    totals: dict = field(default_factory=new_totals)


@dataclass
class RunReport:
    """What every method's run returns: its episode records, w_hat (the
    first best episode's average, x_0 when none closed, or gradient
    descent's first best iterate) and its gradient norm, totals
    (``new_totals``), audits, the params it ran with and its log."""

    episodes: list
    w_hat: NDArray
    grad_norm_final: float
    totals: dict
    audits: dict
    params: HyperParams | GdParams
    log: Optional[StepLog] = None
    stationary_start: bool = False


def init(spec: ObjectiveSpec, params: HyperParams) -> OqnState:
    """Evaluate the start gradient (one evaluation) and set the first
    displacement to the scaled steepest-descent direction,
    -D g0 / max(|g0|, STATIONARY_RTOL L1): of length D unless the start is
    stationary, where ``run`` takes no step from it.
    """
    grad_counter = Counter()
    matvec_counter = Counter()
    g0 = eval_gradient(spec, spec.x0, grad_counter)
    g0_norm = max(math.sqrt(ddot(g0, g0)), STATIONARY_RTOL * spec.l1)
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
         log: Optional[StepLog] = None) -> tuple[TrustRegionSubproblem, TRSolution]:
    """Run one iteration of the quasi-Newton loop in place (two gradient
    evaluations in one oracle call, plus one more call at an episode
    boundary): the learner round of the pair the step completes, then the
    trust-region solve.  Returns the subproblem the step solved and its
    solution; the subproblem's operator is a view of the learner's W, so it
    is valid until the next step's learner round writes W in place.
    """
    return _advance(state, spec, params, rng, log, _solve)


def og_step(state: OqnState, spec: ObjectiveSpec, params: HyperParams, rng: RngStream,
            log: Optional[StepLog] = None) -> None:
    """Run one iteration of the frozen-matrix optimistic baseline in place:
    with the zero matrix the implicit update is the explicit projection
    P_D(delta_n - eta (grad f(z_n) + r)); no learner, no matvec."""
    _advance(state, spec, params, rng, log, _project)


def _advance(state: OqnState, spec: ObjectiveSpec, params: HyperParams, rng: RngStream,
             log: Optional[StepLog], move):
    """The iteration both steps share: the gradient call, the pair-loss and
    ledger folds, the conversion margin, the episode close and the state
    update.  ``move(state, params, rng, log, r, gz)`` plays the method's
    part and returns delta_{n+1}, delta_{n+1} - delta_n, the next hint and
    the step's result."""
    n = state.n + 1
    ledger = log is not None and log.full and spec.hess_at is not None
    d_rad = params.d_radius
    delta_n = state.delta_vec
    half_delta = 0.5 * delta_n

    # the midpoint w_n and the hint point z_n go to the oracle as one (2, d)
    # stack, each row formed by the expression that gives its bits
    x_next = state.x + delta_n
    points = np.empty((2, spec.dim))
    w_n, z_n = points[0], points[1]
    np.add(state.x, half_delta, out=w_n)
    np.add(x_next, half_delta, out=z_n)
    grads = eval_gradient(spec, points, state.grad_counter)
    g_n, gz = grads[0], grads[1]

    # the loss pair of iteration n-1 is complete now; its residual y - B s
    # is the hint error r (r = y for the zero matrix), and |r|^2 its loss
    r = g_n - state.hint
    if state.pending_s is not None:
        if log is not None:
            loss = ddot(r, r)
            log.sum_loss += loss
            # pair n-1 is episode ceil((n-1)/T)'s, closed last step if T | n-1
            if (n - 1) % params.t_len == 0:
                state.episodes[-1].sum_loss += loss
            else:
                state.ep_sum_loss += loss
        if ledger:
            r_comp = (g_n - state.grad_z_prev) - state.hess_z_prev.matvec(state.pending_s)
            comp_loss = ddot(r_comp, r_comp)
            log.comparator_loss_sum += comp_loss
            log.comparator_loss_max = _fold_max(log.comparator_loss_max, comp_loss)

    # local-constant problems: flag (never abort) iterates leaving the box
    if spec.box is not None and np.maximum.reduce(np.abs(x_next)) > spec.box:
        state.totals["box_violations"] += 1

    delta_next, moved, hint_next, solved = move(state, params, rng, log, r, gz)

    g_dot_delta = ddot(g_n, delta_n)
    if log is not None and log.f_last is not None:
        # the conversion margin, with the slack L2 D^3 / 24 of audit_regret
        f_next = float(spec.value(x_next))
        margin = log.f_last - f_next + g_dot_delta + spec.l2 * d_rad**3 / 24.0
        log.conversion_min_margin = min(log.conversion_min_margin, margin)
        log.conversion_min_tolerated = min(log.conversion_min_tolerated,
                                           margin + 1e-9 * (1.0 + abs(f_next)))
        log.f_last = f_next
    if ledger:
        hess_z = spec.hess_at(z_n)
        if state.hess_z_prev is None:
            log.hess_fro_first = hess_z.fro()
        else:
            path = hess_z.fro(state.hess_z_prev)
            log.comparator_path_sum += path
            log.comparator_path_max = _fold_max(log.comparator_path_max, path)
        state.hess_z_prev = hess_z

    state.ep_sum_w += w_n
    state.ep_sum_g += g_n
    state.ep_sum_gdotd += g_dot_delta

    if n % params.t_len == 0:
        t = params.t_len
        w_bar = state.ep_sum_w / t
        sum_g_norm = math.sqrt(ddot(state.ep_sum_g, state.ep_sum_g))
        # the comparator u_k = -D sum(g)/|sum(g)| attains D |sum(g)|
        regret = state.ep_sum_gdotd + d_rad * sum_g_norm
        g_bar = eval_gradient(spec, w_bar, state.grad_counter)
        grad_norm = math.sqrt(ddot(g_bar, g_bar))
        state.episodes.append(EpisodeRecord(
            k=len(state.episodes) + 1, grad_norm_at_wbar=grad_norm,
            episode_regret=regret, sum_g_norm=sum_g_norm,
            sum_loss=None if log is None else state.ep_sum_loss,
            cum_gradients=state.grad_counter.count,
            cum_matvecs=state.matvec_counter.count,
        ))
        if state.best is None or grad_norm < state.best[0]:
            state.best = (grad_norm, w_bar)
        state.ep_sum_w = np.zeros(spec.dim)
        state.ep_sum_g = np.zeros(spec.dim)
        state.ep_sum_gdotd = 0.0
        state.ep_sum_loss = 0.0

    state.pending_s = 0.5 * moved
    state.grad_z_prev = gz
    state.x = x_next
    state.delta_vec = delta_next
    state.hint = hint_next
    state.n = n
    return solved


def _solve(state: OqnState, params: HyperParams, rng: RngStream, log: Optional[StepLog],
           r: NDArray, gz: NDArray):
    """``step``'s move: the learner round that closes the pair with r, then
    the trust-region solve of A = B/2 + I/eta for delta_{n+1}."""
    tr = state.totals["tr"]
    d_rad, eta = params.d_radius, params.eta
    delta_n = state.delta_vec
    plain = False  # the learner round moved B by exactly rho (r s' + s r')
    if state.pending_s is not None:
        learner_step(state.b_state, r, state.pending_s, rng)
        plain, new_sep = state.b_state.plain, state.b_state.sep
        tr["sep_calls"] += 1
        tr["sep_matvecs"] += new_sep.matvecs_used
        tr["sep_certified"] += int(new_sep.certified)

    # A = B/2 + I/eta as a view over the learner's operator.
    # The learner keeps |B|_op <= 2 L1, so m = min(2 L1, |B|_F) >= |B|_op:
    # lambda_max(A) <= 1/eta + m/2, spread(A) = spread(B)/2 <= m and
    # lambda_min(A) >= 1/eta - |B|_F/2, all free of matvecs
    b_op = state.b_state.b_op
    b_fro = b_op.frobenius_norm()
    a_op = b_op.shifted(-1.0 / eta, scale=0.5)
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
    m = min(2.0 * state.b_state.l1, b_fro)
    b_bound = max(m, 1.0 / eta + 0.5 * m)
    lam_min_lower = 1.0 / eta - 0.5 * b_fro
    # positional: keyword arguments cost about 0.5 us a call here
    problem = TrustRegionSubproblem(
        a_op, b_vec, d_rad, params.delta_tr, state.b_state.q_per_call, b_bound,
        lam_min_lower, delta_n, a_delta)
    sol = tr_solve(problem, rng)
    delta_next = sol.delta_vec
    moved = delta_next - delta_n
    tr["solves"] += 1
    tr["matvecs"] += sol.matvecs_used
    tr["max_residual"] = max(tr["max_residual"], sol.residual)
    tr["retries"] += int(sol.retried)
    tr["early_exits"] += int(sol.early_exit)
    tr["krylov_starts"] += int(sol.start == "krylov")
    branch = sol.branch.value
    tr["branches"][branch] = tr["branches"].get(branch, 0) + 1
    # B/2 (delta_{n+1} - delta_n) from the two products of A, the solve's
    # at delta_{n+1} and this step's at delta_n: no matvec of its own
    hint_next = gz + (sol.a_delta - a_delta) - moved / eta
    if log is not None and log.full:
        fp = delta_next - project_ball(delta_next - eta * (sol.a_delta + b_vec), d_rad)
        log.fixed_point_max_gap = _fold_max(log.fixed_point_max_gap, math.sqrt(ddot(fp, fp)))
    state.a_delta = sol.a_delta
    return delta_next, moved, hint_next, (problem, sol)


def _project(state: OqnState, params: HyperParams, rng: RngStream, log: Optional[StepLog],
             r: NDArray, gz: NDArray):
    """``og_step``'s move, with the hint grad f(z_n)."""
    eta = params.eta
    delta_next = project_ball(state.delta_vec - eta * gz - eta * r, params.d_radius)
    return delta_next, delta_next - state.delta_vec, gz, None


def run(spec: ObjectiveSpec, params: HyperParams, rng: RngStream,
        audit_level: str = "episode", method: str = "oqn",
        eps_target: Optional[float] = None) -> RunReport:
    """Full run: init, M iterations, K episode closes, audits.  ``method``
    is "oqn" (each iteration a ``step``) or "og" (an ``og_step``).

    ``eps_target`` optionally stops early once an episode average reaches the
    target gradient norm (off by default; the audited algorithm runs the
    fixed budget).  A stationary start (|g0| <= STATIONARY_RTOL L1) is a run
    of zero steps: no episode closes, so it returns x0 and |g0|, unaudited.
    Every run ends in the same report and gradient-accounting check.
    """
    check_one_of("audit_level", audit_level, AUDIT_LEVELS)
    check_one_of("method", method, ("oqn", "og"))
    if eps_target is not None:
        check_positive("eps_target", eps_target)
    state = init(spec, params)
    g0_norm = math.sqrt(ddot(state.hint, state.hint))
    stationary = g0_norm <= STATIONARY_RTOL * spec.l1
    log = StepLog(full=audit_level == "full") if audit_level != "off" else None
    if log is not None and spec.value is not None:
        log.f_start = log.f_last = float(spec.value(spec.x0))

    # read at call time, so a wrapper installed as ``driver.step`` sees it
    advance = step if method == "oqn" else og_step
    stopped_early = False
    for _ in range(0 if stationary else params.m_total):
        advance(state, spec, params, rng, log=log)
        if (eps_target is not None and state.n % params.t_len == 0
                and state.episodes[-1].grad_norm_at_wbar <= eps_target):
            stopped_early = True
            break

    episodes = state.episodes
    grad_norm_final, w_hat = state.best if episodes else (g0_norm, state.x)
    state.totals.update(gradients=state.grad_counter.count,
                        matvecs=state.matvec_counter.count,
                        iterations=state.n, stopped_early=stopped_early)
    report = RunReport(
        episodes=episodes, w_hat=w_hat, grad_norm_final=grad_norm_final,
        totals=state.totals, audits={}, params=params, log=log,
        stationary_start=stationary,
    )
    # two evaluations per iteration, one per episode close, one at init: on
    # a full run that is params.gradient_total, and it holds on a stopped or
    # stationary one
    expected = 2 * state.n + len(episodes) + 1
    if state.grad_counter.count != expected:
        raise AssertionError(
            f"gradient accounting broken: {state.grad_counter.count} != {expected}")
    if log is not None and episodes:
        report.audits = audit_regret(report, spec, params)
    return report


def run_gd(spec: ObjectiveSpec, params: GdParams,
           eps_target: Optional[float] = None) -> RunReport:
    """Plain gradient descent x_{n+1} = x_n - step_size grad f(x_n), the
    standard comparator: one gradient per iteration, ``params.steps`` of
    them or up to the first of norm <= ``eps_target``.  w_hat is the first
    best iterate evaluated; there are no episodes, audits or matvecs."""
    if eps_target is not None:
        check_positive("eps_target", eps_target)
    counter, totals = Counter(), new_totals()
    x, best = spec.x0.copy(), None
    for _ in range(params.steps):
        g = eval_gradient(spec, x, counter)
        norm = math.sqrt(ddot(g, g))
        if best is None or norm < best[0]:
            best = (norm, x)
        if eps_target is not None and norm <= eps_target:
            totals["stopped_early"] = True
            break
        x = x - params.step_size * g
        if spec.box is not None and np.maximum.reduce(np.abs(x)) > spec.box:
            totals["box_violations"] += 1
    totals.update(gradients=counter.count, iterations=counter.count)
    grad_norm_final, w_hat = best
    return RunReport(episodes=[], w_hat=w_hat, grad_norm_final=grad_norm_final,
                     totals=totals, audits={}, params=params)


def _fold_max(current: Optional[float], value: float) -> float:
    """max() of a list, folded one term at a time: None before the first."""
    return value if current is None else max(current, value)


def audit_regret(report: RunReport, spec: ObjectiveSpec, params: HyperParams) -> dict:
    """Evaluate both sides of the audited inequalities on the run's folded
    log and episode records.

    Each audit reports its sides or its worst margin, and an ``_ok`` flag
    with its own tolerance: lhs <= rhs + 1e-6 |rhs| for regret, stationarity
    and the dynamic-regret ledger; an absolute 1e-9 for episode averaging and
    the comparator loss and path; gap <= (1 + 1e-9) eta delta + 1e-12 for the
    fixed point; and margin >= -1e-9 (1 + |f(x_{n+1})|) per conversion step.
    Audits that need the value or Hessian oracle are skipped when the
    oracle is absent or the log holds no comparator ledger.  No audit loops
    over steps: ``step`` folded each per-step term into the log (and
    evaluated the Hessians), so this reads its sums, minima and maxima.

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
    if log.f_start is not None:
        audits["conversion_step_min_margin"] = log.conversion_min_margin
        audits["conversion_step_ok"] = log.conversion_min_tolerated >= 0.0

    # episode averaging inequality: grad at average vs averaged gradients
    ep_margins = [
        ep.sum_g_norm / t_len + 0.5 * l2 * t_len**2 * d_rad**2 - ep.grad_norm_at_wbar
        for ep in report.episodes
    ]
    audits["averaging_episode_min_margin"] = min(ep_margins) if ep_margins else 0.0
    audits["averaging_episode_ok"] = all(m >= -1e-9 for m in ep_margins)

    # shifting-regret inequality over the whole run
    regret = sum(ep.episode_regret for ep in report.episodes)
    rhs_regret = (4.0 * k_eps * d_rad**2 / eta
                  + 1.5 * eta * log.sum_loss
                  + 2.0 * d_rad * k_eps * t_len * params.delta_tr)
    audits["regret_lhs"] = regret
    audits["regret_rhs"] = rhs_regret
    audits["regret_margin"] = rhs_regret - regret
    audits["regret_ok"] = regret <= rhs_regret + 1e-6 * abs(rhs_regret)

    # stationarity bound at the episode averages
    if log.f_start is not None:
        gap = log.f_start - spec.f_lower
        lhs = sum(ep.grad_norm_at_wbar for ep in report.episodes) / k_eps
        rhs = (gap / (d_rad * k_eps * t_len) + regret / (d_rad * k_eps * t_len)
               + l2 * d_rad**2 / 24.0 + 0.5 * l2 * t_len**2 * d_rad**2)
        audits["stationarity_lhs"] = lhs
        audits["stationarity_rhs"] = rhs
        audits["stationarity_margin"] = rhs - lhs
        audits["stationarity_ok"] = lhs <= rhs + 1e-6 * abs(rhs)

    # dynamic-regret ledger against the true Hessian comparator
    if log.comparator_loss_max is not None:
        sqrt_d = math.sqrt(spec.dim)
        rhs_dyn = (16.0 * d_rad**2 * log.hess_fro_first ** 2
                   + 2.0 * log.comparator_loss_sum
                   + 64.0 * spec.l1 * d_rad**2 * sqrt_d * log.comparator_path_sum)
        audits["dynamic_regret_lhs"] = log.sum_loss
        audits["dynamic_regret_rhs"] = rhs_dyn
        audits["dynamic_regret_ok"] = log.sum_loss <= rhs_dyn + 1e-6 * abs(rhs_dyn)
        loss_bound, path_bound = l2**2 * d_rad**4 / 4.0, 2.0 * l2 * sqrt_d * d_rad
        audits["comparator_loss_max"] = log.comparator_loss_max
        audits["comparator_loss_bound"] = loss_bound
        audits["comparator_loss_ok"] = log.comparator_loss_max <= loss_bound + 1e-9
        audits["comparator_path_max"] = log.comparator_path_max
        audits["comparator_path_bound"] = path_bound
        audits["comparator_path_ok"] = log.comparator_path_max <= path_bound + 1e-9

    # fixed-point form of the implicit update
    if log.fixed_point_max_gap is not None:
        fp_bound = eta * params.delta_tr
        audits["fixed_point_max_gap"] = log.fixed_point_max_gap
        audits["fixed_point_bound"] = fp_bound
        audits["fixed_point_ok"] = log.fixed_point_max_gap <= fp_bound * (1.0 + 1e-9) + 1e-12

    audits["all_ok"] = all(v for k, v in audits.items() if k.endswith("_ok"))
    return audits
