"""Randomized Lanczos machinery: minimum-eigenpair and separation oracles.

Both oracles run a short Lanczos recurrence from a random unit start with
full reorthogonalization, then read estimates off the small tridiagonal
matrix.  Iteration counts follow the worst-case budgets (capped at the
ambient dimension, where the Krylov space saturates and the estimates become
exact).  Breakdown, which the budgets do not anticipate, means an invariant
subspace was found: we truncate and keep the then-exact Ritz pairs.

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
from scipy.linalg import eigh_tridiagonal

from .errors import InvalidArgument
from .rng import RngStream

BREAKDOWN_RTOL = 1e-12


@dataclass
class LanczosFactorization:
    """Three-term recurrence data: A V = V T + beta_{k+1} v_{k+1} e_k'.

    ``alphas`` holds the diagonal of T (length k), ``betas`` holds
    beta_2..beta_{k+1} (length k; the last entry is the residual norm after
    step k and is *not* part of T).  ``basis`` holds v_1..v_k plus v_{k+1}
    when no breakdown occurred.
    """

    alphas: list
    betas: list
    basis: list
    breakdown_at: Optional[int] = None
    breakdown_tol: float = 0.0

    @property
    def size(self) -> int:
        return len(self.alphas)

    def basis_matrix(self) -> NDArray:
        return np.column_stack(self.basis[: self.size])

    def tridiagonal(self) -> tuple[NDArray, NDArray]:
        """(diagonal, off-diagonal) of T."""
        return np.asarray(self.alphas), np.asarray(self.betas[:-1])


def lanczos_factorize(op, v1: NDArray, n_steps: int) -> LanczosFactorization:
    """Run ``n_steps`` Lanczos steps from the unit vector ``v1``.

    Stops early on breakdown (beta below ``1e-12 * |A|_F``), recording where.
    Uses exactly min(n_steps, breakdown index) matvecs.
    """
    v1 = np.asarray(v1, dtype=float)
    if abs(np.linalg.norm(v1) - 1.0) > 1e-12:
        raise InvalidArgument(f"|v1| = {np.linalg.norm(v1)!r}, need a unit start")
    if n_steps < 1 or n_steps > op.dim:
        raise InvalidArgument(f"n_steps must be in [1, dim], got {n_steps}")
    tol = BREAKDOWN_RTOL * op.frobenius_norm()
    fact = LanczosFactorization(alphas=[], betas=[], basis=[v1], breakdown_tol=tol)
    return lanczos_extend(fact, op, n_steps)


def lanczos_extend(fact: LanczosFactorization, op, n_steps_total: int) -> LanczosFactorization:
    """Continue an existing factorization up to ``n_steps_total`` steps."""
    if fact.breakdown_at is not None:
        return fact
    while fact.size < n_steps_total:
        k = fact.size  # about to perform step k+1 (1-indexed: step fact.size+1)
        v_k = fact.basis[k]
        w = op.apply(v_k)
        if k > 0:
            w = w - fact.betas[-1] * fact.basis[k - 1]
        alpha = float(w @ v_k)
        w = w - alpha * v_k
        # full reorthogonalization; cheap vector work, no matvecs
        basis_mat = np.column_stack(fact.basis)
        w = w - basis_mat @ (basis_mat.T @ w)
        beta = math.sqrt(w @ w)
        fact.alphas.append(alpha)
        fact.betas.append(beta)
        if beta <= fact.breakdown_tol:
            # the tiny beta stays in betas for the residual term
            fact.breakdown_at = fact.size
            return fact
        fact.basis.append(w / beta)
    return fact


class MinEvecCase(Enum):
    PSD_CERTIFIED = "psd_certified"
    NEGATIVE_EIG = "negative_eig"


@dataclass
class MinEvecResult:
    """``ritz_max`` is the largest stage-1 Ritz value, read off the same
    tridiagonal eigensolve as the smallest: a lower estimate of lambda_max,
    exact when the Krylov space is full (n1 = d), at no matvec cost."""

    lambda_hat: float
    v_hat: NDArray
    case: MinEvecCase
    matvecs_used: int
    ritz_max: float


def _stage_budget(b_bound: float, delta: float, log_arg: float) -> int:
    n = math.ceil(
        0.25 * math.sqrt(2.0 * max(b_bound, 0.0) / delta) * math.log(max(log_arg, 1.0)) + 0.5
    )
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

    ``b_bound`` must upper-bound lambda_max - lambda_min (caller's
    responsibility).  Stage 1 estimates the minimum Ritz value and shifts it
    down by delta/2; a nonnegative shifted value certifies PSD.  Otherwise
    stage 2 extends the Krylov space and extracts the eigenvector whose
    shifted residual norm is smallest, via the squared-shift matrix.
    Stage 1's largest Ritz value is returned as ``ritz_max`` either way.
    ``budget_factor`` scales both stage budgets (used by retry logic).
    """
    if not (0.0 < q < 1.0):
        raise InvalidArgument(f"q must be in (0,1), got {q}")
    if not 0.0 < delta < math.inf:
        raise InvalidArgument(f"delta must be positive and finite, got {delta}")
    if not math.isfinite(b_bound):
        raise InvalidArgument(f"b_bound must be finite, got {b_bound}")
    d = op.dim
    n1 = min(d, budget_factor * _stage_budget(b_bound, delta, 11.0 * d / q**2))
    start = rng.unit_vector(d)
    fact = lanczos_factorize(op, start, n1)
    diag, off = fact.tridiagonal()
    ritz = eigh_tridiagonal(diag, off, eigvals_only=True)
    ritz_max = float(ritz[-1])
    lambda_hat = float(ritz[0]) - 0.5 * delta

    if lambda_hat >= 0.0:
        return MinEvecResult(lambda_hat, np.zeros(d), MinEvecCase.PSD_CERTIFIED, fact.size,
                             ritz_max)

    n2 = min(
        d,
        budget_factor * _stage_budget(b_bound, delta, 44.0 * d * b_bound / (q**2 * delta)),
    )
    lanczos_extend(fact, op, max(n1, n2))
    k = fact.size
    diag, off = fact.tridiagonal()
    t_mat = np.diag(diag) + np.diag(off, 1) + np.diag(off, -1)
    shifted = t_mat - lambda_hat * np.eye(k)
    m_mat = shifted @ shifted
    m_mat[k - 1, k - 1] += fact.betas[-1] ** 2
    z_min = np.linalg.eigh(m_mat)[1][:, 0]
    v_hat = fact.basis_matrix() @ z_min
    v_hat = v_hat / np.linalg.norm(v_hat)
    return MinEvecResult(lambda_hat, v_hat, MinEvecCase.NEGATIVE_EIG, fact.size, ritz_max)


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


def sep(w_op, l1: float, q: float, rng: RngStream) -> SepResult:
    """Approximate separation oracle for the operator-norm ball of radius l1.

    Either certifies that the input is inside the doubled ball (gamma <= 1),
    or returns a scaling gamma > 1 together with a rank-one separating
    hyperplane built from the dominant Ritz pair.  When |W|_F <= l1 the
    answer is certain in advance: it is "inside" with gamma = |W|_F / l1, at
    no matvec and no draw from ``rng``.
    """
    if not 0.0 < l1 < math.inf:
        raise InvalidArgument("l1 must be positive and finite")
    if not (0.0 < q < 1.0):
        raise InvalidArgument(f"q must be in (0,1), got {q}")
    d = w_op.dim
    fro = w_op.frobenius_norm()
    if fro <= l1:  # |W|_op <= |W|_F: every Ritz value is at most l1
        return SepResult(fro / l1, np.zeros(d), 0.0, l1, SepCase.INSIDE_DOUBLED, 0)
    n = min(d, max(1, math.ceil(0.5 * math.log(11.0 * d / q**2) + 0.5)))
    fact = lanczos_factorize(w_op, rng.unit_vector(d), n)
    diag, off = fact.tridiagonal()
    evals, evecs = eigh_tridiagonal(diag, off)
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
