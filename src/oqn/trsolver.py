"""Inexact trust-region subproblem solver via convexification.

The solve certifies a normal-cone residual below the requested accuracy.
The branch is the already-convex path when A is known to be PSD, otherwise a
regularized convex path that shifts A by the minimum-eigenvalue estimate
lambda_hat and solves to delta / 2.  PSD-ness comes from the caller's
deterministic lower bound on the smallest eigenvalue when that bound is
nonnegative (no probe, no randomness); otherwise a randomized
minimum-eigenpair probe decides.

Both branches solve their convex inner problem the same way.  First a
warm-started FISTA probe with adaptive restart runs from the caller's
``x_start``.  The probe applies the inner operator once per iterate and gets
it at the momentum point by linearity, so it reads the exact inner residual
of every iterate for free, and it stops once that residual is at most
``EARLY_EXIT_RTOL * min(accuracy, |b|)``; the solve then reports
``early_exit``.  Wherever the eigenpair probe ran, the probe's step starts
from the top Ritz value it already computed (exact once its Krylov space is
full): at 1 / ritz_max on a convex branch the eigenpair probe certified, at
1 / (ritz_max - lambda_hat) on the regularized one.  It backtracks towards
1 / ``b_bound`` (1 / (``b_bound`` - lambda_hat) when regularized), where the
check stops; a rejected step's matvec counts against N.  A convex branch the
caller certified draws nothing and steps at 1 / ``b_bound``: its restarted
linear rate depends on ``b_bound`` / lambda_min, so a tight caller bound is
what lets it certify in few iterations.  A caller that already holds
A ``x_start``, up to rounding, passes it as ``a_start``, and the probe
starts without a matvec on either branch: the regularized one forms
A ``x_start`` - lambda_hat ``x_start`` from it.  Only when the probe does
not certify within the fixed budget N does the solve run the fixed-budget
two-phase method from the origin (a FISTA burn-in that shrinks the
objective gap, then a gradient-norm phase that converts the gap into a small
residual) at the fixed step the bound gives: the worst-case path whose
theory bounds the cost, (N + 1) + 2N + 1 matvecs per attempt after the
eigenpair probe.  The regularized branch then takes an
interior answer to the sphere along the estimated eigenvector.

The certificate is the residual of the original problem, and the solution
hands back the product A ``delta_vec`` that certificate read, so a caller
needs no matvec of its own at the answer.  On a convex probe exit both are
the probe's own (k + 1 matvecs in all, k with ``a_start``, so a solve
certified at its start costs none); on every other path, a regularized probe
exit included, since that probe read the shifted residual, ``residual_of``
applies A once more, and that matvec is counted too.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum
from typing import Optional

import numpy as np
from numpy.typing import NDArray

from .eig import MinEvecCase, min_evec
from .errors import CertificateFailure, InvalidArgument
from .rng import RngStream

BOUNDARY_RTOL = 1e-9
INTERIOR_RTOL = 1e-12
# the probe exits at residual EARLY_EXIT_RTOL * min(acc, |b|), acc the
# branch's inner accuracy (delta, or delta/2 when regularized): far below
# acc, so the early answer keeps the quality of the fixed-budget one (a
# delta/2 exit measurably lost progress), and relative to |b|, the residual at
# the origin, so the exit sets no absolute floor on the subproblem's accuracy
# when a converging run makes b tiny
EARLY_EXIT_RTOL = math.sqrt(np.finfo(float).eps)


@dataclass
class TrustRegionSubproblem:
    """min over the ball of radius D of  0.5 x'Ax + b'x, to accuracy delta.

    ``b_bound`` must upper-bound both the spectral spread and the largest
    eigenvalue of A; it is the caller's certificate and sizes all internal
    iteration budgets.  ``lam_min_lower`` must lower-bound the smallest
    eigenvalue of A, likewise on the caller's word; a nonnegative value
    certifies A PSD and skips the minimum-eigenpair probe.  ``x_start`` is
    where the early-exit probe starts on either branch (default: the
    origin); it is projected onto the ball, at no matvec cost, unless it lies
    in the ball as ``residual_of`` accepts it.  ``a_start``, optional, is
    A ``x_start`` up to rounding, as the caller already holds it; the probe
    uses it in place of its first matvec when it starts at ``x_start``
    itself (shifted by lambda_hat on the regularized branch), and a probe
    that certifies there reads its residual from it and hands it back as
    ``TRSolution.a_delta``.  ``b`` is a vector of length ``a_op.dim``, and
    ``x_start`` and ``a_start`` have its shape (else InvalidArgument).
    """

    a_op: object
    b: NDArray
    radius: float
    delta: float
    q: float
    b_bound: float
    lam_min_lower: float = -math.inf
    x_start: Optional[NDArray] = None
    a_start: Optional[NDArray] = None

    def __post_init__(self):
        self.b = np.asarray(self.b, dtype=float)
        if self.b.shape != (self.a_op.dim,):
            raise InvalidArgument(f"b {self.b.shape} vs operator dim {self.a_op.dim}")
        if self.x_start is None:
            self.x_start = np.zeros(self.b.shape)
        else:
            self.x_start = np.asarray(self.x_start, dtype=float)
        for name, v in (("x_start", self.x_start), ("a_start", self.a_start)):
            if v is not None and np.shape(v) != self.b.shape:
                raise InvalidArgument(f"{name} {np.shape(v)} vs b {self.b.shape}")
        for name in ("radius", "delta", "b_bound"):
            if not 0.0 < getattr(self, name) < math.inf:
                raise InvalidArgument(f"{name} must be positive and finite")
        if not (0.0 < self.q < 1.0):
            raise InvalidArgument("q must be in (0,1)")


class TRBranch(Enum):
    CONVEX = "convex"
    REGULARIZED_INTERIOR = "regularized_interior"
    REGULARIZED_BOUNDARY = "regularized_boundary"


@dataclass
class TRSolution:
    """``early_exit`` means the probe certified the inner problem of the
    branch taken; ``n_accel`` then counts its kept steps (a step the
    probe's backtracking rejected, on either branch where the eigenpair
    probe ran, is not counted, though its matvec is), else it is the fixed
    per-phase budget N.  ``residual`` is the original problem's: the convex
    probe's own on a convex early exit, ``residual_of`` at ``delta_vec``
    otherwise (regularized branches always).  ``a_delta`` is the product
    A ``delta_vec`` that residual was read from, at no matvec to the caller:
    the bits ``a_op.apply(delta_vec)`` returns, except on a probe exit at its
    start, which hands back the caller's ``a_start`` itself."""

    delta_vec: NDArray
    residual: float
    a_delta: NDArray
    matvecs_used: int
    branch: TRBranch
    lambda_hat: float = 0.0
    n_accel: int = 0
    retried: bool = False
    early_exit: bool = False


def project_ball(x: NDArray, radius: float) -> NDArray:
    n = math.sqrt(x @ x)
    if n <= radius:
        return x
    return x * (radius / n)


def _in_ball(norm: float, d_radius: float) -> bool:
    """The ball as ``residual_of`` accepts it: a rounding outside counts in."""
    return norm <= d_radius * (1.0 + 1e-9) + 1e-15


def residual_of(a_op, b: NDArray, d_radius: float, delta_vec: NDArray,
                with_product: bool = False):
    """Certified normal-cone residual at ``delta_vec``; exactly one matvec.

    Interior points (strictly inside the ball, relative tolerance 1e-12) have
    a trivial normal cone; on the boundary the best cone element is the
    closed-form multiple of ``delta_vec`` itself.  With ``with_product`` the
    result is ``(residual, A delta_vec)``, the product the residual read.
    """
    delta_vec = np.asarray(delta_vec, dtype=float)
    norm = math.sqrt(delta_vec @ delta_vec)
    if not _in_ball(norm, d_radius):
        raise InvalidArgument(f"|delta| = {norm!r} exceeds radius {d_radius!r}")
    ax = a_op.apply(delta_vec)
    res = _cone_residual(ax + b, delta_vec, norm, d_radius)
    return (res, ax) if with_product else res


def _cone_residual(r: NDArray, x: NDArray, norm: float, d_radius: float) -> float:
    """Distance from -r = -(Ax + b) to the normal cone of the ball at x."""
    if norm < d_radius * (1.0 - INTERIOR_RTOL):
        return math.sqrt(r @ r)
    c_star = max(0.0, -float(r @ x) / d_radius**2)
    r = r + c_star * x
    return math.sqrt(r @ r)


def fista(a_psd, b: NDArray, d_radius: float, lg: float, n_iters: int, x_start: NDArray) -> NDArray:
    """Projected FISTA on the ball; one matvec per iteration.

    Requires ``a_psd`` PSD (up to the caller's certificate) and
    ``lg >= lambda_max``; delivers the standard 1/(N+1)^2 objective-gap rate.
    """
    x = np.asarray(x_start, dtype=float)
    y = x
    t = 1.0
    for _ in range(n_iters):
        grad = a_psd.apply(y) + b
        x_next = project_ball(y - grad / lg, d_radius)
        t_next = 0.5 * (1.0 + math.sqrt(1.0 + 4.0 * t * t))
        y = x_next + ((t - 1.0) / t_next) * (x_next - x)
        x, t = x_next, t_next
    return x


def fista_probe(a_psd, b: NDArray, d_radius: float, lg: float, n_iters: int,
                x_start: NDArray, tol: float, a_start: Optional[NDArray] = None,
                l_start: Optional[float] = None
                ) -> tuple[Optional[NDArray], int, Optional[float], Optional[NDArray]]:
    """Projected FISTA with gradient restart that stops at the first
    iterate with residual <= tol.

    Applies A once to the start and once to each new iterate (at most
    ``n_iters + 1`` matvecs).  The start is ``x_start`` itself when
    ``residual_of`` would accept it, a rounding outside the ball included,
    and its projection otherwise; a given ``a_start`` = A ``x_start``
    replaces the first matvec when the start is ``x_start`` itself.  A at the
    momentum point follows by linearity, so the residual of every iterate is
    read without an extra matvec.  Its
    value is the one ``residual_of`` computes at that point.  The momentum
    restarts whenever the projected gradient step points against the last
    move (O'Donoghue & Candes 2015).  That costs no matvec and makes the
    convergence on strongly convex subproblems linear; without it, FISTA's
    oscillations decide whether an instance certifies within N, and the
    solve cost jumps by the whole fallback between similar instances.

    The step is 1 / ``lg``, unless ``l_start`` in (0, ``lg``) is given: the
    step then starts at 1 / ``l_start`` and backtracks (Beck & Teboulle
    2009).  A step from y to x+ is kept when (x+ - y)'(A x+ - A y) <= L
    |x+ - y|^2, read from the product the probe takes anyway; otherwise L
    doubles, capped at ``lg`` where the check stops, and the step is retaken
    from y.  A rejected step's matvec counts against ``n_iters``.
    Returns ``(x, k, residual, ax)`` for the certified iterate after k kept
    steps, ``ax`` the product of ``a_psd`` with ``x`` that the residual read,
    or ``(None, n_iters, None, None)`` when none certified.
    """
    x_start = np.asarray(x_start, dtype=float)
    norm = math.sqrt(x_start @ x_start)
    x = x_start if _in_ball(norm, d_radius) else project_ball(x_start, d_radius)
    ax = a_start if a_start is not None and x is x_start else a_psd.apply(x)
    res = _cone_residual(ax + b, x, math.sqrt(x @ x), d_radius)
    if res <= tol:
        return x, 0, res, ax
    step_l = l_start if l_start is not None and 0.0 < l_start < lg else lg
    y, ay = x, ax
    t = 1.0
    k = 0
    for _ in range(n_iters):
        x_next = project_ball(y - (ay + b) / step_l, d_radius)
        ax_next = a_psd.apply(x_next)
        res = _cone_residual(ax_next + b, x_next, math.sqrt(x_next @ x_next), d_radius)
        if res <= tol:
            return x_next, k + 1, res, ax_next
        if step_l < lg:
            move = x_next - y
            if move @ (ax_next - ay) > step_l * (move @ move):
                step_l = min(2.0 * step_l, lg)
                continue  # retake the step from y
        k += 1
        if (y - x_next) @ (x_next - x) > 0.0:
            t = 1.0  # the step opposes the motion: drop the momentum
        t_next = 0.5 * (1.0 + math.sqrt(1.0 + 4.0 * t * t))
        beta = (t - 1.0) / t_next
        y = x_next + beta * (x_next - x)
        ay = ax_next + beta * (ax_next - ax)
        x, ax, t = x_next, ax_next, t_next
    return None, n_iters, None, None


def sfg(a_psd, b: NDArray, d_radius: float, lg: float, n_iters: int, x_start: NDArray) -> NDArray:
    """Gradient-norm phase: accelerated method with terminal momentum schedule.

    Step size 1/(4 lg); the momentum coefficients depend on the remaining
    iteration count, with a dedicated second-to-last step, so the budget must
    be fixed up front (n_iters >= 2).  One matvec per iteration.
    """
    if n_iters < 2:
        raise InvalidArgument("the terminal step needs two prior iterates")
    n = n_iters
    x = np.asarray(x_start, dtype=float)
    y = x
    for k in range(n):
        grad = a_psd.apply(y) + b
        x_next = project_ball(y - grad / (4.0 * lg), d_radius)
        if k <= n - 3:
            c1 = ((n - k) * (2 * n - 2 * k - 3)) / ((n - k + 2) * (2 * n - 2 * k - 1))
            c2 = ((4 * n - 4 * k - 5) * (2 * n - 2 * k - 3)) / (
                6.0 * (n - k + 2) * (2 * n - 2 * k - 1)
            )
            y_next = x_next + c1 * (x_next - x) + c2 * (x_next - y)
        elif k == n - 2:
            y_next = x_next + 0.3 * (x_next - x) + 0.075 * (x_next - y)
        else:  # k == n - 1: final iterate, no further extrapolation
            y_next = x_next
        x, y = x_next, y_next
    return x


def accel_budget(lg: float, d_radius: float, delta: float) -> int:
    """Per-phase iteration count ceil(sqrt(10 lg D / delta)), at least 2."""
    return max(2, math.ceil(math.sqrt(10.0 * lg * d_radius / delta)))


def fista_plus_sfg(a_psd, b: NDArray, d_radius: float, lg: float, n_iters: int) -> NDArray:
    """Chain the two phases from the origin, ``n_iters`` = N steps each;
    residual at the output is at most delta whenever the PSD/lg
    certificates hold and N >= accel_budget(lg, d_radius, delta).  Total
    matvecs 2N.  Either branch of ``tr_solve`` runs it only after
    ``fista_probe`` declined, with the probe's N, so a fallback costs (N + 1)
    + 2N matvecs before the residual check.
    """
    x0 = np.zeros(a_psd.dim)
    mid = fista(a_psd, b, d_radius, lg, n_iters, x0)
    return sfg(a_psd, b, d_radius, lg, n_iters, mid)


def tr_solve(p: TrustRegionSubproblem, rng: RngStream) -> TRSolution:
    """Solve the subproblem to a certified residual of at most ``p.delta``.

    A nonnegative ``p.lam_min_lower`` selects the convex branch outright;
    otherwise one minimum-eigenpair probe picks the branch.  Each branch
    fixes its operator, step bound and inner accuracy: A, max(b_bound, delta)
    and delta when convex; A - lambda_hat I, max(b_bound - lambda_hat, delta)
    and delta / 2 when regularized.  Where the eigenpair probe ran, on
    either branch, the probe's step starts from its top Ritz value (shifted
    by lambda_hat when regularized) and backtracks; a caller-certified solve
    steps at 1 / max(b_bound, delta).  The inner problem's answer is the
    ``fista_probe`` one from ``p.x_start`` (with the start product from
    ``p.a_start``) when the probe certifies (``early_exit``), else the
    fixed-budget ``fista_plus_sfg`` one; the regularized branch then takes
    it to the sphere when it is interior.  The certified residual on the
    original problem is asserted at the end of every solve: a convex probe
    exit reports the residual and the product A x the probe read at its
    answer, every other path (the probe read the shifted residual on a
    regularized branch) applies A once more through ``residual_of`` and
    reports that product.
    On failure (the oracles are Monte-Carlo), the solve retries once with
    fresh randomness and doubled iteration budgets before raising.
    """
    counter = p.a_op.counter
    start_count = counter.count
    certified_psd = p.lam_min_lower >= 0.0
    b_norm = math.sqrt(p.b @ p.b)
    last = None
    for attempt, factor in enumerate((1, 2)):
        if certified_psd:
            ev, lambda_hat = None, p.lam_min_lower
        else:
            ev = min_evec(p.a_op, p.delta / (2.0 * p.radius), 0.5 * p.q, p.b_bound, rng,
                          budget_factor=factor)
            lambda_hat = ev.lambda_hat
        convex = certified_psd or ev.case is MinEvecCase.PSD_CERTIFIED
        if convex:
            op, lg, acc = p.a_op, max(p.b_bound, p.delta), p.delta
            a_start, l_start = p.a_start, None if ev is None else ev.ritz_max
        else:
            op = p.a_op.shifted(lambda_hat)
            lg, acc = max(p.b_bound - lambda_hat, p.delta), 0.5 * p.delta
            # (A - lambda_hat I) x_start from the caller's A x_start
            a_start = None if p.a_start is None else p.a_start - lambda_hat * p.x_start
            l_start = ev.ritz_max - lambda_hat
        n_accel = accel_budget(lg, p.radius, acc) * factor
        cand, k, res, a_cand = fista_probe(op, p.b, p.radius, lg, n_accel, p.x_start,
                                           EARLY_EXIT_RTOL * min(acc, b_norm),
                                           a_start, l_start)
        early_exit = cand is not None
        if early_exit:
            n_accel = k
        else:
            cand = fista_plus_sfg(op, p.b, p.radius, lg, n_accel)
        if convex:
            branch = TRBranch.CONVEX
        elif np.linalg.norm(cand) >= p.radius * (1.0 - BOUNDARY_RTOL):
            branch = TRBranch.REGULARIZED_BOUNDARY
        else:
            v = ev.v_hat if float(cand @ ev.v_hat) <= 0.0 else -ev.v_hat
            proj = float(cand @ v)
            alpha = math.sqrt(proj**2 + p.radius**2 - float(cand @ cand)) - proj
            cand = cand + alpha * v
            cand *= p.radius / np.linalg.norm(cand)  # snap exactly onto the sphere
            branch = TRBranch.REGULARIZED_INTERIOR
        if not (convex and early_exit):
            res, a_cand = residual_of(p.a_op, p.b, p.radius, cand, with_product=True)
        last = TRSolution(
            delta_vec=cand,
            residual=res,
            a_delta=a_cand,
            matvecs_used=counter.count - start_count,
            branch=branch,
            lambda_hat=lambda_hat,
            n_accel=n_accel,
            retried=attempt > 0,
            early_exit=early_exit,
        )
        if res <= p.delta:
            return last
    raise CertificateFailure(
        f"trust-region residual {last.residual:.3e} > delta {p.delta:.3e} after retry"
    )
