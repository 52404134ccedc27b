"""Symmetric linear operators with matrix-vector product accounting.

Every matrix the optimizer touches on its hot path is applied only through
``apply`` (one counted matvec per call), and every such matrix is one type,
``SymOperator``.  A build stores one symmetric matrix S as its upper
triangle, Fortran-ordered with a zero strict lower part, the layout the BLAS
symmetric routines read: its ``apply`` is one ``dsymv``, and the matrix
learner updates its triangle in place with ``dsyr2`` and ``dsyr``.  Its
``shifted`` method makes the view ``scale * S - shift * I`` over the same
triangle, counter and stored norm, whose Frobenius norm and trace follow in
closed form; a view of a view composes into one (scale, shift) pair.  The
driver's trust-region matrix B/2 + I/eta is such a view, and so is the
solver's regularized A - lambda_hat I.  A build either symmetrizes and
checks a full square input and keeps its upper triangle or, given the norm
through ``fro=``, trusts a caller that already holds the triangle in this
layout and its norm (the matrix learner): then it costs no d x d pass at
all.  Full symmetric matrices are only built on request, for the
brute-force test oracles and audits.  Counters are run-scoped objects owned
by the caller, never globals.
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
    """The symmetric d x d operator ``scale * S - shift * I``, S stored as
    its upper triangle ``upper``, Fortran-ordered with a zero strict lower
    part.  ``apply`` increments the attached counter by exactly one per
    call; ``dense`` and the norm queries are free of matvec cost.  |S|_F is
    stored as ``fro``; the matrix learner, which writes ``upper`` in place,
    updates ``fro`` together with it.

    A build is S itself (``scale`` 1, ``shift`` 0); ``shifted`` makes the
    views.  By default a build takes a full square ``mat``, symmetrizes a
    copy of it and rejects a matrix that is not symmetric.  A caller that
    passes ``fro`` vouches that ``mat`` is already an upper triangle in the
    layout above and that ``fro`` is the Frobenius norm of the symmetric
    matrix it stands for: the operator then wraps ``mat`` itself, with no
    copy, check or norm pass.
    """

    __slots__ = ("upper", "counter", "fro", "scale", "shift")

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
            if not math.isfinite(self.fro):
                raise InvalidArgument("matrix has non-finite entries")
            if np.linalg.norm(mat - mat.T) > 1e-10 * (self.fro or 1.0):
                raise InvalidArgument("matrix is not symmetric")
            # sym is exactly symmetric, so its lower triangle transposed is
            # its upper triangle, already in Fortran order
            self.upper = np.tril(sym).T
        self.counter = counter if counter is not None else Counter()
        self.scale, self.shift = 1.0, 0.0

    def shifted(self, shift: float, scale: float = 1.0) -> SymOperator:
        """The view ``scale * self - shift * I``: same triangle, counter and
        stored norm, no copy.  A view of a view is one view, with
        (scale * self.scale, scale * self.shift + shift)."""
        view = SymOperator.__new__(SymOperator)
        view.upper, view.counter, view.fro = self.upper, self.counter, self.fro
        view.scale = float(scale) * self.scale
        view.shift = float(scale) * self.shift + float(shift)
        return view

    @property
    def _is_view(self) -> bool:
        return self.scale != 1.0 or self.shift != 0.0

    @property
    def dim(self) -> int:
        return self.upper.shape[0]

    def apply(self, v: NDArray) -> NDArray:
        v = np.asarray(v, dtype=float)
        if v.shape != (self.dim,):
            raise InvalidArgument(f"vector shape {v.shape} vs operator dim {self.dim}")
        self.counter.tick()
        sv = dsymv(1.0, self.upper, v)
        return self.scale * sv - self.shift * v if self._is_view else sv

    def dense(self) -> NDArray:
        """The full symmetric matrix, built on each call, no matvec cost."""
        full = self.upper + np.triu(self.upper, 1).T
        return self.scale * full - self.shift * np.eye(self.dim) if self._is_view else full

    def frobenius_norm(self) -> float:
        """The stored |S|_F on a build; on a view, |s S - t I|_F^2 =
        s^2 |S|_F^2 - 2 s t tr(S) + d t^2, no dense copy."""
        if not self._is_view:
            return self.fro
        s, t = self.scale, self.shift
        sq = ((s * self.fro) ** 2 - 2.0 * s * t * float(np.trace(self.upper))
              + self.dim * t * t)
        return math.sqrt(max(sq, 0.0))

    def trace(self) -> float:
        return self.scale * float(np.trace(self.upper)) - self.shift * self.dim


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
