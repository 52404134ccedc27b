"""Randomized Lanczos machinery: minimum-eigenpair and separation oracles.

Both oracles run a short Lanczos recurrence from a random unit start with
full reorthogonalization, then read estimates off the small tridiagonal
matrix.  Iteration counts follow the worst-case budgets (capped at the
ambient dimension, where the Krylov space saturates and the estimates become
exact).  Breakdown, which the budgets do not anticipate, means an invariant
subspace was found: we truncate and keep the then-exact Ritz pairs.  A
breakdown in ``min_evec``'s stage 1 settles the probe there: its bottom Ritz
pair is an exact eigenpair, so stage 2 does not run.

A factorization keeps its Lanczos vectors as the rows of one preallocated
C-ordered array, grown at most once per extension, so a step
reorthogonalizes against a contiguous view of the rows written so far and
copies no basis; ``basis_matrix()`` and the bases the oracles hand back are
views of that array.

A step's recurrence works in place on the fresh product the operator
returns: the two three-term subtractions are BLAS ``daxpy`` calls and the
full reorthogonalization is one ``w -= (Q w) Q`` over the rows written so
far.  The product is ``SymOperator._product``, ``apply`` without its shape
check, since a basis row has the operator's dimension by construction; it
counts its matvec all the same.

Each probe solves its tridiagonal once: ``min_evec``'s stage 1 and ``sep``
each take one LAPACK ``?stevd`` call with vectors through
``tridiagonal_eigh``, bound once at import, and ``min_evec`` hands its Ritz
pairs on, so ``trsolver.krylov_minimizer`` solves nothing of its own.
``?stevd`` is the driver SciPy's ``eigh_tridiagonal`` picks for a full
spectrum, so the bits are SciPy's, but its per-call validation and dispatch
are gone: they cost 10-15 us a call, about as much as LAPACK's own work on
the small tridiagonals read here.  Stage 2's refined vector is one more
LAPACK call, ``?syevr`` for the single bottom eigenpair of the squared-shift
matrix (see ``refined_vector``), made only when stage 1 did not break down.
The package requires SciPy >= 1.17, the oldest release these bindings and
their bits were checked on.

The separation oracle first reads the operator's Frobenius norm, which the
operators hold at no matvec cost.  Since |W|_op <= |W|_F, a norm at most l1
certifies W inside the ball, so every Ritz value would be at most l1 as
well: the oracle then answers "inside" without a random draw or a Lanczos
run.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum
from typing import Optional

import numpy as np
from numpy.typing import NDArray
from scipy.linalg import get_lapack_funcs
from scipy.linalg.blas import daxpy, ddot

from .errors import InvalidArgument, check_nonnegative, check_open_unit, check_positive
from .rng import RngStream

BREAKDOWN_RTOL = 1e-12

_STEVD, _SYEVR = get_lapack_funcs(("stevd", "syevr"), (np.empty(1),))


def tridiagonal_eigh(diag: NDArray, off: NDArray,
                     compute_v: bool) -> tuple[NDArray, Optional[NDArray]]:
    """Eigenvalues, ascending, of the symmetric tridiagonal with diagonal
    ``diag`` and off-diagonal ``off``, and with ``compute_v`` its orthonormal
    eigenvectors as columns (else None): the bits of SciPy's
    ``eigh_tridiagonal(diag, off, eigvals_only=not compute_v,
    lapack_driver="stevd")``.

    It keeps what that wrapper guards.  Non-finite input is rejected before
    the call, since ``?stevd`` answers it with NaN and info 0.  A finite
    sum of squares proves every entry finite, so the test is one ``ddot``
    per input, and entrywise only when that sum is not finite (a non-finite
    entry, or an overflow).  A nonzero info is rejected as a failed oracle
    output.  A 1 x 1 matrix is answered without LAPACK, whose ``?stevd``
    binding rejects an empty off-diagonal (and ``ddot`` an empty vector).
    """
    sq = ddot(diag, diag) + (ddot(off, off) if off.size else 0.0)
    if not math.isfinite(sq) and not (np.isfinite(diag).all() and np.isfinite(off).all()):
        raise InvalidArgument("tridiagonal has non-finite entries")
    if diag.size == 1:
        return diag.copy(), (np.ones((1, 1)) if compute_v else None)
    evals, evecs, info = _STEVD(diag, off, compute_v=compute_v)
    if info != 0:
        raise InvalidArgument(f"LAPACK ?stevd failed on the tridiagonal, info = {info}")
    return evals, (evecs if compute_v else None)


@dataclass
class LanczosFactorization:
    """Three-term recurrence data: A V = V T + beta_{k+1} v_{k+1} e_k'.

    ``alphas`` holds the diagonal of T (length k), ``betas`` holds
    beta_2..beta_{k+1} (length k; the last entry is the residual norm after
    step k and is *not* part of T).  ``basis`` is one C-ordered (cap, d)
    array whose row j holds v_{j+1}: rows 0..k-1 are v_1..v_k, row k is
    v_{k+1} when no breakdown occurred, and later rows are unused capacity.
    ``lanczos_factorize`` allocates n_steps + 1 rows; ``lanczos_extend``
    replaces the array by a larger copy at most once per call, so a view
    taken before an extension keeps its rows and bits.
    """

    alphas: list
    betas: list
    basis: NDArray
    breakdown_at: Optional[int] = None
    breakdown_tol: float = 0.0

    @property
    def size(self) -> int:
        return len(self.alphas)

    def basis_matrix(self) -> NDArray:
        """V = [v_1 .. v_k] (d x k), a view of ``basis``, not a copy."""
        return self.basis[: self.size].T

    def tridiagonal(self) -> tuple[NDArray, NDArray]:
        """(diagonal, off-diagonal) of T."""
        return np.asarray(self.alphas), np.asarray(self.betas[:-1])


def lanczos_factorize(op, v1: NDArray, n_steps: int) -> LanczosFactorization:
    """Run ``n_steps`` Lanczos steps from the unit vector ``v1``.

    Stops early on breakdown (beta below ``1e-12 * |A|_F``), recording where.
    Uses exactly min(n_steps, breakdown index) matvecs.
    """
    v1 = np.asarray(v1, dtype=float)
    norm = math.sqrt(ddot(v1, v1))
    if abs(norm - 1.0) > 1e-12:
        raise InvalidArgument(f"|v1| = {norm!r}, need a unit start")
    if n_steps < 1 or n_steps > op.dim:
        raise InvalidArgument(f"n_steps must be in [1, dim], got {n_steps}")
    tol = BREAKDOWN_RTOL * op.frobenius_norm()
    basis = np.empty((n_steps + 1, v1.size))
    basis[0] = v1
    fact = LanczosFactorization(alphas=[], betas=[], basis=basis, breakdown_tol=tol)
    return lanczos_extend(fact, op, n_steps)


def lanczos_extend(fact: LanczosFactorization, op, n_steps_total: int) -> LanczosFactorization:
    """Continue an existing factorization up to ``n_steps_total`` steps,
    first growing ``fact.basis`` to n_steps_total + 1 rows by one copy if it
    is shorter."""
    if fact.breakdown_at is not None:
        return fact
    k = fact.size  # steps done; row k holds v_{k+1}
    if fact.basis.shape[0] <= n_steps_total:
        grown = np.empty((n_steps_total + 1, fact.basis.shape[1]))
        grown[: k + 1] = fact.basis[: k + 1]
        fact.basis = grown
    basis = fact.basis
    while k < n_steps_total:
        v_k = basis[k]
        # the product is a fresh array, so the recurrence updates it in
        # place; a row has the operator's dimension, so apply's checks are
        # skipped
        w = op._product(v_k)
        if k > 0:
            w = daxpy(basis[k - 1], w, a=-fact.betas[-1])
        alpha = ddot(w, v_k)
        w = daxpy(v_k, w, a=-alpha)
        # full reorthogonalization against the rows written so far; cheap
        # vector work, no matvecs
        q = basis[: k + 1]
        w -= (q @ w) @ q
        beta = math.sqrt(ddot(w, w))
        fact.alphas.append(alpha)
        fact.betas.append(beta)
        k += 1
        if beta <= fact.breakdown_tol:
            # the tiny beta stays in betas for the residual term
            fact.breakdown_at = k
            return fact
        np.divide(w, beta, out=basis[k])
    return fact


class MinEvecCase(Enum):
    PSD_CERTIFIED = "psd_certified"
    NEGATIVE_EIG = "negative_eig"


@dataclass
class MinEvecResult:
    """``ritz_max`` is the largest stage-1 Ritz value, read off the same
    tridiagonal eigensolve as the smallest: a lower estimate of lambda_max,
    exact when the Krylov space is full (n1 = d), at no matvec cost.

    ``basis`` (d x k1) is stage 1's Lanczos basis V1, taken before stage 2
    extends the factorization, and ``ritz_pairs`` = (theta, Q) is the one
    eigendecomposition T1 = Q diag(theta) Q' of its tridiagonal
    T1 = V1' A V1 that stage 1 computed, theta ascending and Q's columns
    orthonormal.  ``basis`` is a view of stage 1's row array, not a copy;
    stage 2 grows the factorization into a new array, so V1's rows keep
    their bits.  ``trsolver`` minimizes its subproblem over that Krylov
    space from these pairs, at no matvec and no eigensolve of its own.
    lambda_hat = theta[0] - delta/2, so T1 - lambda_hat I, and T1 itself
    when PSD is certified, is at least (delta/2) I."""

    lambda_hat: float
    v_hat: NDArray
    case: MinEvecCase
    matvecs_used: int
    ritz_max: float
    basis: NDArray
    ritz_pairs: tuple[NDArray, NDArray]


def refined_vector(diag: NDArray, off: NDArray, shift: float, beta: float) -> NDArray:
    """Stage 2's coefficients: the unit z minimizing |(T - shift I) z|^2 +
    beta^2 z_k^2, the squared residual of the Ritz vector V z in
    A - shift I, for the k x k tridiagonal T with diagonal ``diag`` and
    off-diagonal ``off`` and the residual norm ``beta`` after step k.  z is
    the bottom eigenvector, up to sign, of the squared-shift matrix
    M = (T - shift I)^2 + beta^2 e_k e_k'.

    T - shift I's three diagonals go into one zeroed array, M is its square
    by one product, and one LAPACK ``?syevr`` call over M's upper triangle,
    bound once at import, computes that single eigenpair (il = iu = 1).
    Chosen by measurement over ``np.linalg.eigh``, which solves for all k
    pairs: 25 us against 66 us at k = 20, one BLAS thread, 2-vCPU VM.  A
    direct ``?syevd``, eigh's own driver and bits, took 56 us.  The vector
    agrees with eigh's up to sign and rounding.  A nonzero info is rejected
    as a failed oracle output; k = 1 is answered without LAPACK.
    """
    k = diag.size
    if k == 1:
        return np.ones(1)
    shifted = np.zeros((k, k))
    flat = shifted.reshape(-1)
    np.subtract(diag, shift, out=flat[:: k + 1])
    flat[1:: k + 1] = off
    flat[k:: k + 1] = off
    m_mat = shifted @ shifted
    m_mat[k - 1, k - 1] += beta**2
    _, z, _, _, info = _SYEVR(m_mat, range="I", il=1, iu=1, overwrite_a=1)
    if info != 0:
        raise InvalidArgument(f"LAPACK ?syevr failed on the squared-shift matrix, info = {info}")
    return z[:, 0]


def _stage_budget(b_bound: float, delta: float, log_arg: float) -> int:
    n = math.ceil(0.25 * math.sqrt(2.0 * b_bound / delta) * math.log(max(log_arg, 1.0)) + 0.5)
    return max(1, n)


def min_evec(
    op,
    delta: float,
    q: float,
    b_bound: float,
    rng: RngStream,
    budget_factor: int = 1,
) -> MinEvecResult:
    """Certify PSD-ness or return a delta-accurate minimum eigenpair.

    ``b_bound``, nonnegative and finite, must upper-bound lambda_max -
    lambda_min (caller's responsibility).  Stage 1 estimates the minimum
    Ritz value and shifts it down by delta/2; a nonnegative shifted value
    certifies PSD.  Otherwise, if stage 1 broke down, its Krylov space is
    invariant and v_hat is its bottom Ritz vector, an exact eigenvector whose
    residual |A v_hat - lambda_hat v_hat| is delta/2 up to rounding; no
    stage 2 runs.  Without a breakdown, stage 2 extends the Krylov space and
    extracts the eigenvector whose shifted residual norm is smallest, via the
    squared-shift matrix (``refined_vector``).  Stage 1 solves its
    tridiagonal once, with vectors; its largest Ritz value is returned as
    ``ritz_max`` either way, with stage 1's basis and Ritz pairs.
    ``budget_factor`` scales both stage budgets (used by retry logic).
    """
    check_open_unit("q", q)
    check_positive("delta", delta)
    check_nonnegative("b_bound", b_bound)
    d = op.dim
    n1 = min(d, budget_factor * _stage_budget(b_bound, delta, 11.0 * d / q**2))
    start = rng.unit_vector(d)
    fact = lanczos_factorize(op, start, n1)
    basis1 = fact.basis_matrix()
    ritz_pairs = tridiagonal_eigh(*fact.tridiagonal(), compute_v=True)
    ritz = ritz_pairs[0]
    ritz_max = float(ritz[-1])
    lambda_hat = float(ritz[0]) - 0.5 * delta

    if lambda_hat >= 0.0:
        return MinEvecResult(lambda_hat, np.zeros(d), MinEvecCase.PSD_CERTIFIED, fact.size,
                             ritz_max, basis1, ritz_pairs)

    if fact.breakdown_at is not None:
        # V1 spans an invariant subspace, so the bottom Ritz pair is exact:
        # extending would add no step, and the refined vector would be this
        v_hat = basis1 @ ritz_pairs[1][:, 0]
    else:
        n2 = min(
            d,
            budget_factor * _stage_budget(b_bound, delta, 44.0 * d * b_bound / (q**2 * delta)),
        )
        lanczos_extend(fact, op, max(n1, n2))
        z_min = refined_vector(*fact.tridiagonal(), lambda_hat, fact.betas[-1])
        v_hat = fact.basis_matrix() @ z_min
    v_hat = v_hat / math.sqrt(ddot(v_hat, v_hat))
    return MinEvecResult(lambda_hat, v_hat, MinEvecCase.NEGATIVE_EIG, fact.size, ritz_max,
                         basis1, ritz_pairs)


class SepCase(Enum):
    INSIDE_DOUBLED = "inside_doubled"
    SEPARATED = "separated"


@dataclass
class SepResult:
    """Outcome of ``sep``.  When separated, the hyperplane is S = sign * u u'
    / l1 with ``u`` the unit Ritz vector and ``sign`` = +1 or -1; inside the
    doubled ball, ``sign`` is 0 and ``u`` is the zero vector.  ``gamma`` is
    |W|_F / l1 when the Frobenius norm certified W (``matvecs_used`` 0),
    otherwise the largest absolute Ritz value over l1."""

    gamma: float
    u: NDArray
    sign: float
    l1: float
    case: SepCase
    matvecs_used: int

    @property
    def certified(self) -> bool:
        """Settled by the Frobenius certificate |W|_F <= l1: Lanczos spends
        at least one matvec, so only the certificate answers with none."""
        return self.matvecs_used == 0

    @property
    def s_mat(self) -> NDArray:
        """Dense S, built on each read: the zero matrix when ``sign`` is 0."""
        if self.sign == 0.0:
            return np.zeros((self.u.size, self.u.size))
        return self.sign * np.outer(self.u, self.u) / self.l1


def sep_budget(d: int, q: float) -> int:
    """Lanczos steps ``sep`` takes in dimension d at failure probability q."""
    return min(d, max(1, math.ceil(0.5 * math.log(11.0 * d / q**2) + 0.5)))


def sep(w_op, l1: float, q: float, rng: RngStream) -> SepResult:
    """Approximate separation oracle for the operator-norm ball of radius l1.

    Either certifies that the input is inside the doubled ball (gamma <= 1),
    or returns a scaling gamma > 1 together with a rank-one separating
    hyperplane built from the dominant Ritz pair.  When |W|_F <= l1 the
    answer is certain in advance: it is "inside" with gamma = |W|_F / l1, at
    no matvec and no draw from ``rng``.  |W|_F is the operator's stored
    norm, which may be the bound of ``linops``'s invariant.
    """
    check_positive("l1", l1)
    check_open_unit("q", q)
    d = w_op.dim
    fro = w_op.frobenius_norm()
    if fro <= l1:  # |W|_op <= |W|_F: every Ritz value is at most l1
        return SepResult(fro / l1, np.zeros(d), 0.0, l1, SepCase.INSIDE_DOUBLED, 0)
    fact = lanczos_factorize(w_op, rng.unit_vector(d), sep_budget(d, q))
    diag, off = fact.tridiagonal()
    evals, evecs = tridiagonal_eigh(diag, off, compute_v=True)
    lam_top, lam_bot = float(evals[-1]), float(evals[0])
    gamma = max(lam_top, -lam_bot) / l1
    if gamma <= 1.0:
        return SepResult(gamma, np.zeros(d), 0.0, l1, SepCase.INSIDE_DOUBLED, fact.size)
    basis = fact.basis_matrix()
    if lam_top >= -lam_bot:
        u, sign = basis @ evecs[:, -1], 1.0
    else:
        u, sign = basis @ evecs[:, 0], -1.0
    return SepResult(gamma, u, sign, l1, SepCase.SEPARATED, fact.size)
