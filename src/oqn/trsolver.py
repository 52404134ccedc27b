"""Inexact trust-region subproblem solver via convexification.

The solve certifies a normal-cone residual below the requested accuracy.
The branch is the already-convex path when A is known to be PSD, otherwise a
regularized convex path; each is handled by an accelerated projected method
(a FISTA burn-in that shrinks the objective gap, then a gradient-norm phase
that converts the gap into a small residual).  PSD-ness comes from the
caller's deterministic lower bound on the smallest eigenvalue when that bound
is nonnegative (no probe, no randomness); otherwise a randomized
minimum-eigenpair probe decides.  All matrix access is counted matvecs;
residual checks cost one matvec each and are counted too.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum

import numpy as np
from numpy.typing import NDArray

from .eig import MinEvecCase, min_evec
from .errors import CertificateFailure, IterBudgetTooSmall, OutsideBall
from .linops import ShiftedOperator
from .rng import RngStream

BOUNDARY_RTOL = 1e-9
INTERIOR_RTOL = 1e-12


@dataclass
class TrustRegionSubproblem:
    """min over the ball of radius D of  0.5 x'Ax + b'x, to accuracy delta.

    ``b_bound`` must upper-bound both the spectral spread and the largest
    eigenvalue of A; it is the caller's certificate and sizes all internal
    iteration budgets.  ``lam_min_lower`` must lower-bound the smallest
    eigenvalue of A, likewise on the caller's word; a nonnegative value
    certifies A PSD and skips the minimum-eigenpair probe.
    """

    a_op: object
    b: NDArray
    radius: float
    delta: float
    q: float
    b_bound: float
    lam_min_lower: float = -math.inf

    def __post_init__(self):
        self.b = np.asarray(self.b, dtype=float)
        if self.radius <= 0:
            raise ValueError("radius must be positive")
        if self.delta <= 0:
            raise ValueError("delta must be positive")
        if not (0.0 < self.q < 1.0):
            raise ValueError("q must be in (0,1)")


class TRBranch(Enum):
    CONVEX = "convex"
    REGULARIZED_INTERIOR = "regularized_interior"
    REGULARIZED_BOUNDARY = "regularized_boundary"


@dataclass
class TRSolution:
    delta_vec: NDArray
    residual: float
    matvecs_used: int
    branch: TRBranch
    lambda_hat: float = 0.0
    n_accel: int = 0
    retried: bool = False


def project_ball(x: NDArray, radius: float) -> NDArray:
    n = math.sqrt(x @ x)
    if n <= radius:
        return x
    return x * (radius / n)


def residual_of(a_op, b: NDArray, d_radius: float, delta_vec: NDArray) -> float:
    """Certified normal-cone residual at ``delta_vec``; exactly one matvec.

    Interior points (strictly inside the ball, relative tolerance 1e-12) have
    a trivial normal cone; on the boundary the best cone element is the
    closed-form multiple of ``delta_vec`` itself.
    """
    delta_vec = np.asarray(delta_vec, dtype=float)
    norm = math.sqrt(delta_vec @ delta_vec)
    if norm > d_radius * (1.0 + 1e-9) + 1e-15:
        raise OutsideBall(f"|delta| = {norm!r} exceeds radius {d_radius!r}")
    r = a_op.apply(delta_vec) + b
    if norm < d_radius * (1.0 - INTERIOR_RTOL):
        return math.sqrt(r @ r)
    c_star = max(0.0, -float(r @ delta_vec) / d_radius**2)
    r = r + c_star * delta_vec
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


def sfg(a_psd, b: NDArray, d_radius: float, lg: float, n_iters: int, x_start: NDArray) -> NDArray:
    """Gradient-norm phase: accelerated method with terminal momentum schedule.

    Step size 1/(4 lg); the momentum coefficients depend on the remaining
    iteration count, with a dedicated second-to-last step, so the budget must
    be fixed up front (n_iters >= 2).  One matvec per iteration.
    """
    if n_iters < 2:
        raise IterBudgetTooSmall("the terminal step needs two prior iterates")
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


def fista_plus_sfg(a_psd, b: NDArray, d_radius: float, delta: float, lg: float,
                   budget_factor: int = 1) -> NDArray:
    """Chain the two phases from the origin; residual at the output is at
    most ``delta`` whenever the PSD/lg certificates hold.  Total matvecs 2N
    with N = accel_budget(lg, d_radius, delta).
    """
    n = accel_budget(lg, d_radius, delta) * budget_factor
    x0 = np.zeros(a_psd.dim)
    mid = fista(a_psd, b, d_radius, lg, n, x0)
    return sfg(a_psd, b, d_radius, lg, n, mid)


def tr_solve(p: TrustRegionSubproblem, rng: RngStream) -> TRSolution:
    """Solve the subproblem to a certified residual of at most ``p.delta``.

    A nonnegative ``p.lam_min_lower`` selects the convex branch outright;
    otherwise one minimum-eigenpair probe picks the branch.  The certified
    residual on the original problem is asserted at the end of every solve.
    On failure (the oracles are Monte-Carlo), the solve retries once with
    fresh randomness and doubled iteration budgets before raising.
    """
    counter = p.a_op.counter
    start_count = counter.count
    certified_psd = p.lam_min_lower >= 0.0
    last = None
    for attempt, factor in enumerate((1, 2)):
        if certified_psd:
            ev, lambda_hat = None, p.lam_min_lower
        else:
            ev = min_evec(p.a_op, p.delta / (2.0 * p.radius), 0.5 * p.q, p.b_bound, rng,
                          budget_factor=factor)
            lambda_hat = ev.lambda_hat
        if certified_psd or ev.case is MinEvecCase.PSD_CERTIFIED:
            lg = max(p.b_bound, p.delta)
            cand = fista_plus_sfg(p.a_op, p.b, p.radius, p.delta, lg, budget_factor=factor)
            branch = TRBranch.CONVEX
            n_accel = accel_budget(lg, p.radius, p.delta) * factor
        else:
            shifted = ShiftedOperator(p.a_op, lambda_hat)
            lg = max(p.b_bound - lambda_hat, p.delta)
            tilde = fista_plus_sfg(shifted, p.b, p.radius, 0.5 * p.delta, lg,
                                   budget_factor=factor)
            n_accel = accel_budget(lg, p.radius, 0.5 * p.delta) * factor
            if np.linalg.norm(tilde) >= p.radius * (1.0 - BOUNDARY_RTOL):
                cand = tilde
                branch = TRBranch.REGULARIZED_BOUNDARY
            else:
                v = ev.v_hat if float(tilde @ ev.v_hat) <= 0.0 else -ev.v_hat
                proj = float(tilde @ v)
                alpha = math.sqrt(proj**2 + p.radius**2 - float(tilde @ tilde)) - proj
                cand = tilde + alpha * v
                cand *= p.radius / np.linalg.norm(cand)  # snap exactly onto the sphere
                branch = TRBranch.REGULARIZED_INTERIOR
        res = residual_of(p.a_op, p.b, p.radius, cand)
        last = TRSolution(
            delta_vec=cand,
            residual=res,
            matvecs_used=counter.count - start_count,
            branch=branch,
            lambda_hat=lambda_hat,
            n_accel=n_accel,
            retried=attempt > 0,
        )
        if res <= p.delta:
            return last
    raise CertificateFailure(
        f"trust-region residual {last.residual:.3e} > delta {p.delta:.3e} after retry"
    )
