"""Symmetric linear operators with matrix-vector product accounting.

Every matrix the optimizer touches on its hot path is applied only through
``apply`` (one counted matvec per call).  ``SymOperator`` stores one dense
symmetric matrix; everything else is a matrix-free ``ShiftedOperator`` view
``scale * base - shift * I`` over it, whose Frobenius norm and trace follow
in closed form from the base's.  The driver applies only such a view, its
trust-region matrix B/2 + I/eta: one product at the previous step, and the
solve's own, which the solve hands back, at the new one.  A build either
symmetrizes and checks its input or, given the norm through ``fro=``, trusts
a caller that already holds an exactly symmetric matrix and its norm (the
matrix learner): then it costs no d x d pass at all.  Dense copies are only
built on request, for the brute-force test oracles and audits.  Counters are
run-scoped objects owned by the caller, never globals.
"""

from __future__ import annotations

import math

import numpy as np
from numpy.typing import NDArray

from .errors import DimensionMismatch, DimTooLarge

DENSE_EIG_DIM_CAP = 200


class Counter:
    """Run-scoped event counter (matvecs or gradient evaluations)."""

    __slots__ = ("count",)

    def __init__(self):
        self.count = 0

    def tick(self) -> None:
        self.count += 1

    def __repr__(self) -> str:
        return f"Counter({self.count})"


class SymOperator:
    """A symmetric d x d operator backed by dense storage.

    ``apply`` increments the attached counter by exactly one per call; the
    dense backing is reserved for test oracles and norm queries, which are
    free of matvec cost.  The Frobenius norm is computed once, at build time.

    By default the build symmetrizes a copy of ``mat`` and rejects a matrix
    that is not symmetric.  A caller that passes ``fro`` vouches that ``mat``
    is exactly symmetric and that ``fro`` is its Frobenius norm: the operator
    then wraps ``mat`` itself, with no copy, check or norm pass.
    """

    __slots__ = ("mat", "counter", "fro")

    def __init__(self, mat: NDArray, counter: Counter | None = None,
                 fro: float | None = None):
        mat = np.asarray(mat, dtype=float)
        if mat.ndim != 2 or mat.shape[0] != mat.shape[1]:
            raise DimensionMismatch(f"expected a square matrix, got shape {mat.shape}")
        if fro is not None:
            self.mat, self.fro = mat, float(fro)
        else:
            self.mat = 0.5 * (mat + mat.T)
            self.fro = float(np.linalg.norm(self.mat))
            if np.linalg.norm(mat - mat.T) > 1e-10 * (self.fro or 1.0):
                raise DimensionMismatch("matrix is not symmetric")
        self.counter = counter if counter is not None else Counter()

    @property
    def dim(self) -> int:
        return self.mat.shape[0]

    def apply(self, v: NDArray) -> NDArray:
        v = np.asarray(v, dtype=float)
        if v.shape != (self.dim,):
            raise DimensionMismatch(f"vector shape {v.shape} vs operator dim {self.dim}")
        self.counter.tick()
        return self.mat @ v

    def dense(self) -> NDArray:
        """Dense backing, no matvec cost.  Treat as read-only."""
        return self.mat

    def frobenius_norm(self) -> float:
        return self.fro

    def trace(self) -> float:
        return float(np.trace(self.mat))


class ShiftedOperator:
    """Matrix-free view of ``scale * base - shift * I``.

    Scaling and shifting are free; applying the view ticks the base
    operator's counter exactly once.  ``base`` may itself be a view.
    """

    __slots__ = ("base", "shift", "scale")

    def __init__(self, base, shift: float, scale: float = 1.0):
        self.base = base
        self.shift = float(shift)
        self.scale = float(scale)

    @property
    def dim(self) -> int:
        return self.base.dim

    @property
    def counter(self) -> Counter:
        return self.base.counter

    def apply(self, v: NDArray) -> NDArray:
        return self.scale * self.base.apply(v) - self.shift * v

    def dense(self) -> NDArray:
        return self.scale * self.base.dense() - self.shift * np.eye(self.dim)

    def frobenius_norm(self) -> float:
        """|s B - t I|_F^2 = s^2 |B|_F^2 - 2 s t tr(B) + d t^2, no dense copy."""
        s, t = self.scale, self.shift
        sq = ((s * self.base.frobenius_norm()) ** 2 - 2.0 * s * t * self.base.trace()
              + self.dim * t * t)
        return math.sqrt(max(sq, 0.0))

    def trace(self) -> float:
        return self.scale * self.base.trace() - self.shift * self.dim


def dense_extreme_eig(op):
    """Brute-force extreme eigenpairs via a full dense eigendecomposition.

    Test oracle only; never on the algorithm's hot path.  Returns
    ``(lambda_min, lambda_max, v_min, v_max)`` with unit eigenvectors.
    """
    if op.dim > DENSE_EIG_DIM_CAP:
        raise DimTooLarge(f"dim {op.dim} exceeds dense-oracle cap {DENSE_EIG_DIM_CAP}")
    a = op.dense()
    evals, evecs = np.linalg.eigh(a)
    lam_min, lam_max = float(evals[0]), float(evals[-1])
    v_min, v_max = evecs[:, 0], evecs[:, -1]
    scale = np.linalg.norm(a) or 1.0
    for lam, v in ((lam_min, v_min), (lam_max, v_max)):
        if np.linalg.norm(a @ v - lam * v) > 1e-9 * scale:
            raise ArithmeticError("dense eigendecomposition residual out of tolerance")
    return lam_min, lam_max, v_min, v_max
