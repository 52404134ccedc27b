"""Symmetric linear operators with matrix-vector product accounting.

Every matrix the optimizer touches on its hot path is applied only through
``apply`` (one counted matvec per call).  ``SymOperator`` stores one
symmetric matrix as its upper triangle, Fortran-ordered with a zero strict
lower part, the layout the BLAS symmetric routines read: ``apply`` is one
``dsymv``, and the matrix learner updates its triangle in place with
``dsyr2`` and ``dsyr``.  Everything else is a matrix-free
``ShiftedOperator`` view ``scale * base - shift * I`` over it, whose
Frobenius norm and trace follow in closed form from the base's; the
driver's trust-region matrix B/2 + I/eta is such a view.  A build either
symmetrizes and checks a full square input and keeps its upper triangle or,
given the norm through ``fro=``, trusts a caller that already holds the
triangle in this layout and its norm (the matrix learner): then it costs no
d x d pass at all.  Full symmetric matrices are only built on request, for
the brute-force test oracles and audits.  Counters are run-scoped objects
owned by the caller, never globals.
"""

from __future__ import annotations

import math

import numpy as np
from numpy.typing import NDArray
from scipy.linalg.blas import ddot, dsymv

from .errors import InvalidArgument

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


def upper_frobenius(upper: NDArray) -> float:
    """Frobenius norm of the symmetric matrix whose upper triangle, with a
    zero strict lower part, is ``upper``: sqrt(2 |U|_F^2 - |diag U|^2), in
    one pass over the storage plus one over the diagonal.  The difference is
    at least |U|_F^2, so it does not cancel."""
    flat = upper.T.reshape(-1)  # a view for Fortran order
    diag = flat[:: upper.shape[0] + 1]
    return math.sqrt(2.0 * ddot(flat, flat) - ddot(diag, diag))


class SymOperator:
    """A symmetric d x d operator stored as its upper triangle.

    ``upper`` is Fortran-ordered with a zero strict lower part.  ``apply``
    increments the attached counter by exactly one per call; ``dense`` and
    the norm queries are free of matvec cost.  The Frobenius norm is
    computed once, at build time.

    By default the build takes a full square ``mat``, symmetrizes a copy of
    it and rejects a matrix that is not symmetric.  A caller that passes
    ``fro`` vouches that ``mat`` is already an upper triangle in the layout
    above and that ``fro`` is the Frobenius norm of the symmetric matrix it
    stands for: the operator then wraps ``mat`` itself, with no copy, check
    or norm pass.
    """

    __slots__ = ("upper", "counter", "fro")

    def __init__(self, mat: NDArray, counter: Counter | None = None,
                 fro: float | None = None):
        mat = np.asarray(mat, dtype=float)
        if mat.ndim != 2 or mat.shape[0] != mat.shape[1]:
            raise InvalidArgument(f"expected a square matrix, got shape {mat.shape}")
        if fro is not None:
            self.upper, self.fro = mat, float(fro)
        else:
            sym = 0.5 * (mat + mat.T)
            self.fro = float(np.linalg.norm(sym))
            if np.linalg.norm(mat - mat.T) > 1e-10 * (self.fro or 1.0):
                raise InvalidArgument("matrix is not symmetric")
            # sym is exactly symmetric, so its lower triangle transposed is
            # its upper triangle, already in Fortran order
            self.upper = np.tril(sym).T
        self.counter = counter if counter is not None else Counter()

    @property
    def dim(self) -> int:
        return self.upper.shape[0]

    def apply(self, v: NDArray) -> NDArray:
        v = np.asarray(v, dtype=float)
        if v.shape != (self.dim,):
            raise InvalidArgument(f"vector shape {v.shape} vs operator dim {self.dim}")
        self.counter.tick()
        return dsymv(1.0, self.upper, v)

    def dense(self) -> NDArray:
        """The full symmetric matrix, built on each call, no matvec cost."""
        return self.upper + np.triu(self.upper, 1).T

    def frobenius_norm(self) -> float:
        return self.fro

    def trace(self) -> float:
        return float(np.trace(self.upper))


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
        raise InvalidArgument(f"dim {op.dim} exceeds dense-oracle cap {DENSE_EIG_DIM_CAP}")
    a = op.dense()
    evals, evecs = np.linalg.eigh(a)
    lam_min, lam_max = float(evals[0]), float(evals[-1])
    v_min, v_max = evecs[:, 0], evecs[:, -1]
    scale = np.linalg.norm(a) or 1.0
    for lam, v in ((lam_min, v_min), (lam_max, v_max)):
        if np.linalg.norm(a @ v - lam * v) > 1e-9 * scale:
            raise ArithmeticError("dense eigendecomposition residual out of tolerance")
    return lam_min, lam_max, v_min, v_max
