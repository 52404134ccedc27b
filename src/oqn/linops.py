"""Symmetric linear operators with matrix-vector product accounting.

Every matrix the optimizer touches on its hot path is applied only through
``apply`` (one counted matvec per call), and every such matrix is one type,
``SymOperator``.  A build stores one symmetric matrix S as its upper
triangle, Fortran-ordered with a zero strict lower part, the layout the BLAS
symmetric routines read: its ``apply`` is one ``dsymv``.  Its ``shifted``
method makes the view ``scale * S - shift * I`` over the same triangle,
counter and stored norm, whose Frobenius norm and trace follow in closed
form; a view of a view composes into one (scale, shift) pair.  The driver's
trust-region matrix B/2 + I/eta is such a view, and so is the solver's
regularized A - lambda_hat I.  A build either symmetrizes and checks a full
square input and keeps its upper triangle or, given the norm through
``fro=``, trusts a caller that already holds the triangle in this layout and
its norm: then it costs no d x d pass at all.  Full symmetric matrices are
only built on request, for the brute-force test oracles and audits.
Counters are run-scoped objects owned by the caller, never globals.

A build is also the matrix learner's W, and only this module writes its
storage: ``update`` adds alpha (r s' + s r') by one ``dsyr2`` and maybe
beta u u' by one ``dsyr``, ``rescale`` scales it onto a Frobenius ball, and
``form`` is the uncounted r'(alpha S) s.  Its stored norm keeps one
invariant: fro >= |S|_F, at most ``FRO_BOUND_RTOL`` above it relatively,
exact (``_sync_norm``) at least every ``FRO_SYNC_ROUNDS`` updates that move
S.  In between, a rank-two update carries the bound by the closed form
|S + alpha (r s' + s r')|_F^2 = |S|_F^2 + 4 alpha r'S s
+ 2 alpha^2 (|r|^2 |s|^2 + (r's)^2) (the bookkeeping of Byrd, Nocedal &
Schnabel 1994) plus its rounding allowance (``closed_form_sq``);
``fro_slack`` bounds the bound's square minus |S|_F^2 and ``fro_rounds``
counts the carried updates.  The exact pass runs instead after a rank-one
term, when the bound would pass the caller's ``limit`` or the slack
``FRO_BOUND_RTOL`` of it (an update that cancels most of S), when a nonzero
pair's squares underflow, and at the ``FRO_SYNC_ROUNDS``-th carried update;
a zero pair leaves S and its bound alone.  A reader may take the norm for
|S|_F without rounding low, and a view's norm, which grows with it, stays a
bound too.

One reduction rule holds on the optimizer's path: every inner product of
two vectors, and every Euclidean norm, is one BLAS ``ddot`` call
(``math.sqrt(ddot(v, v))`` for |v|), not ``x @ y`` or ``np.linalg.norm``.
On contiguous float64 vectors those two run the same OpenBLAS ``ddot``
kernel, so the bits are the same (14,600 random pairs, d = 1-69 and
128-1024, agreed bit for bit), and the direct call skips NumPy's dispatch:
0.14 us against 0.69 us for ``@`` and 1.1 us for ``np.linalg.norm`` at
d = 16, one BLAS thread on a 2-vCPU VM.  A strided vector is copied by the
binding and may round differently from ``@``; every vector the optimizer
forms is contiguous.  ``dnrm2`` is not used: its scaled sum of squares
rounds differently (on 4,317 of 14,600 such vectors).
"""

from __future__ import annotations

import math
import sys

import numpy as np
from numpy.typing import NDArray
from scipy.linalg.blas import ddot, dsymv, dsyr, dsyr2

from .errors import InvalidArgument

DENSE_EIG_DIM_CAP = 200
# sum_of_squares's block: half the length from which OpenBLAS threads a ddot
REDUCTION_BLOCK = 8192
# an exact pass over a build's storage at least every this many moving updates
FRO_SYNC_ROUNDS = 16
# the stored norm stays at most this far above |S|_F, relatively
FRO_BOUND_RTOL = 1e-10
EPS = sys.float_info.epsilon
# the closed form's squares must be normal: a pair's, and the result's with
# room below it for every underflowed operation's absolute error
TINY = sys.float_info.min
FRO_SQ_FLOOR = TINY / EPS


class Counter:
    """Run-scoped event counter (matvecs or gradient evaluations)."""

    __slots__ = ("count",)

    def __init__(self):
        self.count = 0

    def tick(self, n: int = 1) -> None:
        self.count += n

    def __repr__(self) -> str:
        return f"Counter({self.count})"


def sum_of_squares(flat: NDArray) -> float:
    """flat'flat for a 1-D ``flat``, as ``ddot`` calls over consecutive
    blocks of ``REDUCTION_BLOCK`` entries, added in order.  OpenBLAS splits a
    ``ddot`` of 16,384 entries or more across its threads, and the partial
    sums round by thread count; a block runs on one thread, so the sum has
    the same bits at every thread count.  Up to one block it is one ``ddot``,
    the bits of ``flat @ flat``."""
    total = 0.0
    for start in range(0, flat.size, REDUCTION_BLOCK):
        block = flat[start: start + REDUCTION_BLOCK]
        total += ddot(block, block)
    return total


def upper_frobenius(upper: NDArray) -> float:
    """Frobenius norm of the symmetric matrix whose upper triangle, with a
    zero strict lower part, is ``upper``: sqrt(2 |U|_F^2 - |diag U|^2), in
    one pass over the storage plus one over the diagonal.  The difference is
    at least |U|_F^2, so it does not cancel."""
    flat = upper.T.reshape(-1)  # a view for Fortran order
    diag = flat[:: upper.shape[0] + 1]
    return math.sqrt(2.0 * sum_of_squares(flat) - ddot(diag, diag))


def closed_form_sq(fro: float, cross: float, rr: float, ss: float, rs: float,
                   alpha: float, dim: int) -> tuple[float, float]:
    """|S + alpha (r s' + s r')|_F^2 by the closed form, from fro >= |S|_F,
    cross = r'S s, rr = |r|^2, ss = |s|^2 and rs = r's, all as computed;
    returns it with its rounding allowance, which the exact value does not
    undercut.  The allowance is (d + 8) eps times the sum of the terms'
    magnitudes: a d-term dot product rounds by at most d eps / 2 of the sum
    of its terms' magnitudes (Higham 2002, Sec. 3.1), r'S s chains two
    (``dsymv``, then ``ddot``) and |r'S s| <= |r| |s| |S|_F; on fro^2 the
    same d eps covers the rounding of the exact pass it may come from, and
    8 eps the few scalar operations."""
    f2 = fro * fro
    quad = 2.0 * alpha * alpha * (rr * ss + rs * rs)
    sq = f2 + 4.0 * alpha * cross + quad
    err = (dim + 8) * EPS * (f2 + 4.0 * abs(alpha) * math.sqrt(rr) * math.sqrt(ss) * fro + quad)
    return sq, err


class SymOperator:
    """The symmetric d x d operator ``scale * S - shift * I``, S stored as
    its upper triangle ``upper``, Fortran-ordered with a zero strict lower
    part.  ``apply`` increments the attached counter by exactly one per
    call; ``dense``, the norm queries and ``form`` are free of matvec cost.
    ``fro`` is |S|_F or, once ``update`` ran, a bound on it: never below,
    at most ``FRO_BOUND_RTOL`` above, exact at least every
    ``FRO_SYNC_ROUNDS`` updates that move S (the module docstring says how).

    A build is S itself (``scale`` 1, ``shift`` 0); ``shifted`` makes the
    views.  By default a build takes a full square ``mat``, symmetrizes a
    copy of it and rejects a matrix that is not symmetric.  A caller that
    passes ``fro`` vouches that ``mat`` is already an upper triangle in the
    layout above and that ``fro`` is the Frobenius norm of the symmetric
    matrix it stands for: the operator then wraps ``mat`` itself, with no
    copy, check or norm pass.  Only a build is updated; views read its
    triangle."""

    __slots__ = ("upper", "counter", "fro", "scale", "shift", "fro_slack", "fro_rounds")

    def __init__(self, mat: NDArray, counter: Counter | None = None,
                 fro: float | None = None):
        mat = np.asarray(mat, dtype=float)
        if mat.ndim != 2 or mat.shape[0] != mat.shape[1]:
            raise InvalidArgument(f"expected a square matrix, got shape {mat.shape}")
        if fro is not None:
            self.upper, self.fro = mat, float(fro)
        else:
            sym = 0.5 * (mat + mat.T)
            # np.linalg.norm's order and, up to one block, its bits
            self.fro = math.sqrt(sum_of_squares(sym.ravel(order="K")))
            if not math.isfinite(self.fro):
                raise InvalidArgument("matrix has non-finite entries")
            if np.linalg.norm(mat - mat.T) > 1e-10 * (self.fro or 1.0):
                raise InvalidArgument("matrix is not symmetric")
            # sym is exactly symmetric, so its lower triangle transposed is
            # its upper triangle, already in Fortran order
            self.upper = np.tril(sym).T
        self.counter = counter if counter is not None else Counter()
        self.scale, self.shift = 1.0, 0.0
        self.fro_slack, self.fro_rounds = 0.0, 0

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
        return self._product(v)

    def _product(self, v: NDArray) -> NDArray:
        """``apply`` without its checks, one counted matvec, for a float
        vector of length ``dim``: ``eig``'s Lanczos steps call it on basis
        rows, which have that shape by construction."""
        self.counter.tick()
        sv = dsymv(1.0, self.upper, v)
        if self._is_view:  # scale * sv - shift * v, in sv's own storage
            sv *= self.scale
            sv -= self.shift * v
        return sv

    def dense(self) -> NDArray:
        """The full symmetric matrix, built on each call, no matvec cost."""
        full = self.upper + np.triu(self.upper, 1).T
        return self.scale * full - self.shift * np.eye(self.dim) if self._is_view else full

    def form(self, r: NDArray, s: NDArray, alpha: float = 1.0) -> float:
        """r'(alpha S) s, one ``dsymv`` then one ``ddot``, ticking no counter:
        it prices a loss, not a use of the operator by a solve."""
        return ddot(r, dsymv(alpha, self.upper, s))

    def update(self, alpha: float, r: NDArray, s: NDArray, cross: float, *,
               limit: float, beta: float, u: NDArray | None) -> None:
        """On a build: S += alpha (r s' + s r') in place by one ``dsyr2``,
        then, given ``u``, S += beta u u' by one ``dsyr``.  ``cross`` is r'S s
        before the update (``form``); the bound is carried while it stays at
        most ``limit`` (see the module docstring)."""
        self.upper = dsyr2(alpha, r, s, a=self.upper, overwrite_a=1)
        if u is not None:
            self.upper = dsyr(beta, u, a=self.upper, overwrite_a=1)
        if u is not None or not self._carry_norm(alpha, r, s, cross, limit):
            self._sync_norm()

    def _carry_norm(self, alpha: float, r: NDArray, s: NDArray, cross: float,
                    limit: float) -> bool:
        """The closed-form carry; False, storing nothing, when the exact pass must run."""
        rr, ss = ddot(r, r), ddot(s, s)
        if not (rr >= TINY and ss >= TINY):  # a zero, underflowed or non-finite pair
            # a zero (finite) pair leaves S, and so its bound, as it was
            return rr + ss < math.inf and not (s.any() and r.any())
        sq, err = closed_form_sq(self.fro, cross, rr, ss, ddot(r, s), alpha, self.dim)
        bound_sq = sq + err
        slack = self.fro_slack + 2.0 * err
        if not (bound_sq >= FRO_SQ_FLOOR and self.fro_rounds + 1 < FRO_SYNC_ROUNDS
                and slack <= FRO_BOUND_RTOL * (bound_sq - slack)
                and (bound := math.sqrt(bound_sq)) <= limit):
            return False
        self.fro, self.fro_slack = bound, slack
        self.fro_rounds += 1
        return True

    def _sync_norm(self) -> None:
        """The exact pass: ``fro`` = |S|_F from the storage, slack reset."""
        self.fro = upper_frobenius(self.upper)
        self.fro_slack, self.fro_rounds = 0.0, 0

    def rescale(self, radius: float) -> bool:
        """Scale S by radius / fro in place, then the exact pass, if fro > radius:
        on an exact ``fro``, the Frobenius-ball projection.  True if it did."""
        if not self.fro > radius:
            return False
        self.upper *= radius / self.fro
        self._sync_norm()
        return True

    def frobenius_norm(self) -> float:
        """The stored |S|_F on a build (a bound on it once updated); on a
        view, |s S - t I|_F^2 = s^2 |S|_F^2 - 2 s t tr(S) + d t^2, no dense
        copy."""
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
