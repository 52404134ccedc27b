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
``x_start``, or, wherever the eigenpair probe ran, from x_K when that is
lower in the inner model.  x_K minimizes the inner model over the probe's
stage-1 Krylov space (GLTR, Gould, Lucidi, Roma & Toint 1999): a
k1-dimensional problem, diagonal in the eigenpairs of the tridiagonal T1
that the probe's stage 1 computed and hands back, solved by a secular
equation at no matvec and with no eigensolve of its own.  The caller's
start is priced only where no matvec is needed, at 0 when it is the origin
or from ``a_start``; a start with neither is kept.  x_K costs one matvec:
the solve applies A there once and hands the probe that product (less
lambda_hat x_K on the regularized branch) as its start product.  With a full
Krylov space (k1 = d) x_K is the inner problem's exact minimizer, so the
solve certifies there for k1 + 1 matvecs, one more on the regularized
interior branch, which moves its answer to the sphere.  The probe applies
the inner operator once per iterate and gets
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
A ``x_start``, up to rounding, passes it as ``a_start``, and a probe that
starts there needs no matvec for it on either branch: the regularized one
forms A ``x_start`` - lambda_hat ``x_start`` from it.  Only when the probe does
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
the probe's own (k + 1 matvecs in all, k from a caller's start with
``a_start``, so a solve certified there costs none).  A regularized answer
that is x_K itself, a probe exit at its start on the sphere, reads them from
the product A x_K the solve applied there.  On every other path, a
regularized probe exit included, since that probe read the shifted
residual, ``residual_of`` applies A once more, and that matvec is counted
too.  A caller's ``a_start`` never certifies a regularized answer: it is A
``x_start`` only up to rounding.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum
from typing import Optional

import numpy as np
from numpy.typing import NDArray
from scipy.linalg.blas import ddot

from .eig import MinEvecCase, min_evec
from .errors import CertificateFailure, InvalidArgument, check_open_unit, check_positive
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
# krylov_minimizer's Newton iteration on the boundary multiplier stops once
# |y| is within SECULAR_RTOL of D; it converges quadratically, so the cap is
# a guard only
SECULAR_RTOL = 4.0 * np.finfo(float).eps
SECULAR_MAX_ITERS = 100


@dataclass
class TrustRegionSubproblem:
    """min over the ball of radius D of  0.5 x'Ax + b'x, to accuracy delta.

    ``b_bound`` must upper-bound both the spectral spread and the largest
    eigenvalue of A; it is the caller's certificate and sizes all internal
    iteration budgets.  ``lam_min_lower`` must lower-bound the smallest
    eigenvalue of A, likewise on the caller's word; a nonnegative value
    certifies A PSD and skips the minimum-eigenpair probe.  ``x_start`` is
    where the early-exit probe starts on either branch (default: the
    origin), unless the eigenpair probe ran and the Krylov minimizer x_K is
    lower in the inner model; it is projected onto the ball, at no matvec
    cost, unless it lies in the ball as ``residual_of`` accepts it.
    ``a_start``, optional, is
    A ``x_start`` up to rounding, as the caller already holds it; the probe
    uses it in place of its first matvec when it starts at ``x_start``
    itself (shifted by lambda_hat on the regularized branch), and a probe
    that certifies there reads its residual from it and hands it back as
    ``TRSolution.a_delta``.  ``b`` is a vector of length ``a_op.dim``, and
    ``x_start`` and ``a_start`` have its shape (else InvalidArgument).

    The driver builds its subproblem once per step through
    ``_from_arrays``, which takes float arrays as they are, with no
    ``np.asarray`` and no dataclass ``__init__``, and every field given.  It
    runs the same checks with the same messages: b's shape against
    (``a_op.dim``,), ``x_start``'s and ``a_start``'s against b's, and the
    range test on ``radius``, ``delta`` and ``b_bound`` (positive and
    finite) and ``q`` (in (0, 1)), which fires there when an overflow made
    a bound infinite.
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
        shape = self.b.shape
        if shape != (self.a_op.dim,):
            raise InvalidArgument(f"b {shape} vs operator dim {self.a_op.dim}")
        if self.x_start is None:
            self.x_start = np.zeros(shape)
        else:
            self.x_start = np.asarray(self.x_start, dtype=float)
        if self.x_start.shape != shape:
            raise InvalidArgument(f"x_start {self.x_start.shape} vs b {shape}")
        if self.a_start is not None and np.shape(self.a_start) != shape:
            raise InvalidArgument(f"a_start {np.shape(self.a_start)} vs b {shape}")
        _check_scalars(self.radius, self.delta, self.q, self.b_bound)

    @classmethod
    def _from_arrays(cls, a_op, b: NDArray, radius: float, delta: float, q: float,
                     b_bound: float, lam_min_lower: float, x_start: NDArray,
                     a_start: NDArray) -> "TrustRegionSubproblem":
        """The subproblem of float arrays ``b``, ``x_start`` and ``a_start``,
        taken as they are; the class docstring lists its checks."""
        shape = b.shape
        if shape != (a_op.dim,):
            raise InvalidArgument(f"b {shape} vs operator dim {a_op.dim}")
        if x_start.shape != shape:
            raise InvalidArgument(f"x_start {x_start.shape} vs b {shape}")
        if a_start.shape != shape:
            raise InvalidArgument(f"a_start {a_start.shape} vs b {shape}")
        _check_scalars(radius, delta, q, b_bound)
        p = cls.__new__(cls)
        p.a_op, p.b, p.radius, p.delta, p.q = a_op, b, radius, delta, q
        p.b_bound, p.lam_min_lower, p.x_start, p.a_start = b_bound, lam_min_lower, x_start, a_start
        return p


def _check_scalars(radius: float, delta: float, q: float, b_bound: float) -> None:
    """A subproblem's range test: radius, delta and b_bound positive and
    finite, q in (0, 1)."""
    if not (0.0 < radius < math.inf and 0.0 < delta < math.inf
            and 0.0 < b_bound < math.inf and 0.0 < q < 1.0):
        # one is out of range: the shared checks name it
        for name, value in (("radius", radius), ("delta", delta), ("b_bound", b_bound)):
            check_positive(name, value)
        check_open_unit("q", q)


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
    probe's own on a convex early exit, the one ``residual_of`` computes at
    ``delta_vec`` otherwise: on a regularized answer at x_K, read from the
    product the solve applied there for the probe's start, else by
    ``residual_of`` itself.  ``a_delta`` is the product A ``delta_vec`` that
    residual was read from, at no matvec to the caller: the bits
    ``a_op.apply(delta_vec)`` returns, except on a convex probe exit at the
    caller's start, which hands back the caller's ``a_start`` itself.
    ``start`` is where the probe started: "caller" (``x_start``) or "krylov"
    (x_K)."""

    delta_vec: NDArray
    residual: float
    a_delta: NDArray
    matvecs_used: int
    branch: TRBranch
    lambda_hat: float = 0.0
    n_accel: int = 0
    retried: bool = False
    early_exit: bool = False
    start: str = "caller"


def project_ball(x: NDArray, radius: float) -> NDArray:
    n = math.sqrt(ddot(x, x))
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
    norm = math.sqrt(ddot(delta_vec, delta_vec))
    if not _in_ball(norm, d_radius):
        raise InvalidArgument(f"|delta| = {norm!r} exceeds radius {d_radius!r}")
    ax = a_op.apply(delta_vec)
    res = _cone_residual(ax + b, delta_vec, norm, d_radius)
    return (res, ax) if with_product else res


def _cone_residual(r: NDArray, x: NDArray, norm: float, d_radius: float) -> float:
    """Distance from -r = -(Ax + b) to the normal cone of the ball at x."""
    if norm < d_radius * (1.0 - INTERIOR_RTOL):
        return math.sqrt(ddot(r, r))
    c_star = max(0.0, -ddot(r, x) / d_radius**2)
    r = r + c_star * x
    return math.sqrt(ddot(r, r))


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
    x = np.asarray(x_start, dtype=float)
    norm = math.sqrt(ddot(x, x))
    if _in_ball(norm, d_radius):
        ax = a_start if a_start is not None else a_psd.apply(x)
    else:
        x = project_ball(x, d_radius)
        norm = math.sqrt(ddot(x, x))
        ax = a_psd.apply(x)
    grad = ax + b
    res = _cone_residual(grad, x, norm, d_radius)
    if res <= tol:
        return x, 0, res, ax
    step_l = l_start if l_start is not None and 0.0 < l_start < lg else lg
    # A y + b serves every step taken from y: the first from the start, and
    # each one retaken after a backtrack
    y, ay, gy = x, ax, grad
    t = 1.0
    k = 0
    for _ in range(n_iters):
        x_next = project_ball(y - gy / step_l, d_radius)
        ax_next = a_psd.apply(x_next)
        res = _cone_residual(ax_next + b, x_next, math.sqrt(ddot(x_next, x_next)), d_radius)
        if res <= tol:
            return x_next, k + 1, res, ax_next
        if step_l < lg:
            move = x_next - y
            if ddot(move, ax_next - ay) > step_l * ddot(move, move):
                step_l = min(2.0 * step_l, lg)
                continue  # retake the step from y
        k += 1
        dx = x_next - x
        if ddot(y - x_next, dx) > 0.0:
            t = 1.0  # the step opposes the motion: drop the momentum
        t_next = 0.5 * (1.0 + math.sqrt(1.0 + 4.0 * t * t))
        beta = (t - 1.0) / t_next
        y = x_next + beta * dx
        ay = ax_next + beta * (ax_next - ax)
        gy = ay + b
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


def krylov_minimizer(basis: NDArray, ritz_pairs: tuple[NDArray, NDArray], b: NDArray,
                     d_radius: float, sigma: float) -> Optional[tuple[NDArray, float]]:
    """Minimize the subproblem over the Krylov space of ``basis`` = V1, whose
    T1 = V1' A V1 = Q diag(theta) Q' has the eigenpairs ``ritz_pairs`` =
    (theta, Q), as ``min_evec`` hands them back: min 0.5 y'(T1 - sigma I)y +
    (V1'b)'y over |y| <= D (GLTR, Gould, Lucidi, Roma & Toint 1999).  No
    matvec and no eigensolve: a caller holding only T1's diagonals solves
    them with ``eig.tridiagonal_eigh`` first.

    T1 - sigma I must be positive definite, as ``min_evec`` leaves it for
    sigma = 0 on a certified convex branch and sigma = lambda_hat on the
    regularized one, so the model has no hard case: either the unconstrained
    minimizer lies in the ball, or Newton on 1/|y(mu)| - 1/D, concave and
    increasing in the multiplier mu, rises monotonically from mu = 0 to the
    boundary one (More & Sorensen 1983).  In Q's coordinates the model is
    diagonal, z(mu) = -g / (theta - sigma + mu), and each Newton step takes
    one division, the reciprocal of the shifted spectrum.  Returns
    ``(V1 y, model value)``, or None when rounding left T1 - sigma I without
    a positive spectrum.
    """
    theta, q_mat = ritz_pairs
    theta = theta - sigma
    if not theta[0] > 0.0:
        return None
    g = q_mat.T @ (basis.T @ b)
    neg_g = -g
    inv = 1.0 / theta
    z = neg_g * inv
    norm = math.sqrt(ddot(z, z))
    mu = 0.0
    for _ in range(SECULAR_MAX_ITERS):
        if norm <= d_radius * (1.0 + SECULAR_RTOL):
            break
        # |z|^2' = -2 sum z^2 / (theta + mu)
        mu += (norm - d_radius) / d_radius * norm**2 / ddot(z * inv, z)
        inv = 1.0 / (theta + mu)
        z = neg_g * inv
        norm = math.sqrt(ddot(z, z))
    if mu > 0.0:
        z *= d_radius / norm  # onto the sphere, where the multiplier put it
    return basis @ (q_mat @ z), ddot(z, 0.5 * theta * z + g)


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
    steps at 1 / max(b_bound, delta).  Where the eigenpair probe ran, the
    probe starts from ``krylov_minimizer``'s x_K, over its stage-1 Krylov
    space with sigma = 0 when convex and lambda_hat when regularized, if
    the inner model is lower there than at ``p.x_start`` (0 at the origin,
    0.5 x'(a_start - sigma x) + b'x from a given ``p.a_start``; an
    unpriced start is kept), applying A once at x_K.  The inner problem's
    answer is the ``fista_probe`` one from that start, with its start
    product (A x_K - sigma x_K at x_K, from ``p.a_start`` at ``p.x_start``),
    when the probe certifies (``early_exit``), else the fixed-budget
    ``fista_plus_sfg`` one; the regularized branch then takes it to the
    sphere when it is interior.  The certified residual on the original
    problem is asserted at the end of every solve: a convex probe exit
    reports the residual and the product A x the probe read at its answer,
    a regularized answer that is x_K reads them from the A x_K applied
    there, and every other path (the probe read the shifted residual on a
    regularized branch) applies A once more through ``residual_of`` and
    reports that product.
    On failure (the oracles are Monte-Carlo), the solve retries once with
    fresh randomness and doubled iteration budgets before raising.  A
    non-finite ``p.b`` is rejected before the first matvec.
    """
    counter = p.a_op.counter
    start_count = counter.count
    certified_psd = p.lam_min_lower >= 0.0
    b_norm = math.sqrt(ddot(p.b, p.b))
    if not math.isfinite(b_norm):
        raise InvalidArgument("b must be finite")
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
            op, lg, acc, sigma = p.a_op, max(p.b_bound, p.delta), p.delta, 0.0
            a_start, l_start = p.a_start, None if ev is None else ev.ritz_max
        else:
            op, sigma = p.a_op.shifted(lambda_hat), lambda_hat
            lg, acc = max(p.b_bound - lambda_hat, p.delta), 0.5 * p.delta
            # (A - lambda_hat I) x_start from the caller's A x_start
            a_start = None if p.a_start is None else p.a_start - lambda_hat * p.x_start
            l_start = ev.ritz_max - lambda_hat
        x_start, start, a_xk = p.x_start, "caller", None
        if ev is not None:
            # the inner model's value at the caller's start, where no matvec
            # is needed to know it
            if a_start is not None:
                known = 0.5 * ddot(x_start, a_start) + ddot(p.b, x_start)
            else:
                known = None if x_start.any() else 0.0
            krylov = None if known is None else krylov_minimizer(
                ev.basis, ev.ritz_pairs, p.b, p.radius, sigma)
            if krylov is not None and krylov[1] < known:
                # A x_K, applied once: the probe's start product, and the
                # certificate's too if the regularized answer is x_K itself.
                # On a build operator the shift below has the bits of the
                # shifted view's apply
                x_start, start = krylov[0], "krylov"
                a_xk = p.a_op.apply(x_start)
                a_start = a_xk if convex else a_xk - lambda_hat * x_start
        n_accel = accel_budget(lg, p.radius, acc) * factor
        cand, k, res, a_cand = fista_probe(op, p.b, p.radius, lg, n_accel, x_start,
                                           EARLY_EXIT_RTOL * min(acc, b_norm),
                                           a_start, l_start)
        early_exit = cand is not None
        if early_exit:
            n_accel = k
        else:
            cand = fista_plus_sfg(op, p.b, p.radius, lg, n_accel)
        if convex:
            branch = TRBranch.CONVEX
        elif math.sqrt(cand_sq := ddot(cand, cand)) >= p.radius * (1.0 - BOUNDARY_RTOL):
            branch = TRBranch.REGULARIZED_BOUNDARY
        else:
            # along whichever of +-v_hat opposes cand; negation is exact, so
            # cand'(-v_hat) is -(cand'v_hat) bit for bit
            proj = ddot(cand, ev.v_hat)
            v, proj = (ev.v_hat, proj) if proj <= 0.0 else (-ev.v_hat, -proj)
            alpha = math.sqrt(proj**2 + p.radius**2 - cand_sq) - proj
            cand = cand + alpha * v
            cand *= p.radius / math.sqrt(ddot(cand, cand))  # snap exactly onto the sphere
            branch = TRBranch.REGULARIZED_INTERIOR
        if cand is x_start and a_xk is not None and not convex:
            # the regularized answer is x_K, on the sphere: residual_of's
            # bits from the product already applied there
            res, a_cand = _cone_residual(a_xk + p.b, cand, math.sqrt(cand_sq), p.radius), a_xk
        elif not (convex and early_exit):
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
            start=start,
        )
        if res <= p.delta:
            return last
    raise CertificateFailure(
        f"trust-region residual {last.residual:.3e} > delta {p.delta:.3e} after retry"
    )
