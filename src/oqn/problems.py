"""Objective oracles and the catalog of test problems with honest constants.

The optimizer consumes only the gradient oracle; value and Hessian oracles
exist for auditing and are never counted.  Catalog constants are global
Lipschitz bounds for the trigonometric families and documented box-local
bounds for the Rosenbrock chain (the spec of each family is in its
constructor's docstring).

Each catalog family states its Hessian once, as a structured form of O(d)
data (``hess_at``): ``DiagonalHessian``, ``DiagonalOuterHessian`` (a
diagonal and kappa c c' off it) or ``TridiagonalHessian``.  The quadratic
holds one constant ``DenseHessian``, the form a spec with only a dense
Hessian H(x) states too: ``hess_at=lambda x: DenseHessian(H(x))``.
"""

from __future__ import annotations

import inspect
import math
from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np
from numpy.typing import NDArray
from scipy.linalg.blas import ddot, dgemv

from .errors import InvalidArgument, check_nonnegative, check_positive
from .linops import EPS, Counter, sum_of_squares

FD_GRAD_STEP = 1e-5
FD_HESS_STEP = 1e-4


def hess_form_rtol(dim: int) -> float:
    """How closely a Hessian form's answers agree with dense linear algebra
    on its ``dense()``: (dim + 2)^2 eps, relative to |H|_F |v| for
    ``matvec(v)``, |H|_F for ``fro()`` and |H|_F + |H'|_F for ``fro(other)``.
    It covers the worst-case rounding of the dense d^2-term sums (each term
    off by at most d^2 eps / 2 of the sum of their magnitudes; Higham 2002,
    Sec. 3.1) and of the forms' own O(d) ones."""
    return (dim + 2) ** 2 * EPS


class DenseHessian:
    """A Hessian held as its d x d matrix: the constant form of a quadratic,
    and the form of a spec that knows its Hessian only as a dense matrix.
    Its kernels are ``dgemv`` on H' (``trans=1``) and the blocked
    ``sum_of_squares`` over the entries in ``np.linalg.norm``'s order, so
    the bits do not depend on the BLAS thread count.  A form differenced
    with itself is 0.0, the bits of the sum over H - H, without the pass."""

    __slots__ = ("mat",)

    def __init__(self, mat: NDArray):
        self.mat = mat

    def matvec(self, v: NDArray) -> NDArray:
        return dgemv(1.0, self.mat.T, v, trans=1)

    def fro(self, other=None) -> float:
        if other is self:
            return 0.0
        diff = self.mat if other is None else self.mat - other.dense()
        return math.sqrt(sum_of_squares(diff.ravel(order="K")))

    def dense(self) -> NDArray:
        return self.mat


class DiagonalHessian:
    """H = diag(h).  A difference is the entrywise one, the bits of the
    dense difference's diagonal."""

    __slots__ = ("diag",)

    def __init__(self, diag: NDArray):
        self.diag = diag

    def matvec(self, v: NDArray) -> NDArray:
        return self.diag * v

    def fro(self, other=None) -> float:
        diff = self.diag if other is None else self.diag - other.diag
        return math.sqrt(ddot(diff, diff))

    def dense(self) -> NDArray:
        return np.diag(self.diag)


class DiagonalOuterHessian:
    """H with diagonal e and kappa c_i c_j off it (i != j).

    |H|_F^2 = |e|^2 + 2 kappa^2 sum_j c_j^2 sum_{i<j} c_i^2, a sum of
    nonnegative terms.  Against H' = (e', c'), the diagonal difference is
    e - e' entrywise, and the off-diagonal one is kappa times that of
    c c' - c'c'' = (a b' + b a')/2 with a = c - c' and b = c + c', whose
    squared Frobenius norm is (|a|^2 |b|^2 + (a'b)^2)/2, less its diagonal
    |a o b|^2.  Every term is a product of differences, so the square's
    rounding error, from the two forms' data, is a few d eps of
    |e - e'|^2 + kappa^2 |a|^2 |b|^2 and shrinks with the difference, where
    |c|^4 + |c'|^4 - 2 (c'c')^2 would leave eps |c|^4: about sqrt(eps) |H|_F
    on the norm as z' -> z.
    """

    __slots__ = ("diag", "c", "kappa")

    def __init__(self, diag: NDArray, c: NDArray, kappa: float):
        self.diag, self.c, self.kappa = diag, c, kappa

    def matvec(self, v: NDArray) -> NDArray:
        cv = self.c * v
        return self.diag * v + self.kappa * self.c * (ddot(self.c, v) - cv)

    def fro(self, other=None) -> float:
        if other is None:
            c2 = self.c * self.c
            off_sq = 2.0 * ddot(c2[1:], np.cumsum(c2[:-1]))
            return math.sqrt(ddot(self.diag, self.diag) + self.kappa**2 * off_sq)
        diff = self.diag - other.diag
        a, b = self.c - other.c, self.c + other.c
        ab = a * b
        ab_dot = ddot(a, b)
        off_sq = 0.5 * (ddot(a, a) * ddot(b, b) + ab_dot * ab_dot) - ddot(ab, ab)
        return math.sqrt(ddot(diff, diff) + self.kappa**2 * max(off_sq, 0.0))

    def dense(self) -> NDArray:
        h = self.kappa * np.outer(self.c, self.c)
        np.fill_diagonal(h, self.diag)
        return h


class TridiagonalHessian:
    """H with diagonal ``diag`` and ``off`` on both sides of it.  A
    difference is the entrywise one, the bits of the dense difference's
    three bands."""

    __slots__ = ("diag", "off")

    def __init__(self, diag: NDArray, off: NDArray):
        self.diag, self.off = diag, off

    def matvec(self, v: NDArray) -> NDArray:
        out = self.diag * v
        out[:-1] += self.off * v[1:]
        out[1:] += self.off * v[:-1]
        return out

    def fro(self, other=None) -> float:
        diag, off = ((self.diag, self.off) if other is None
                     else (self.diag - other.diag, self.off - other.off))
        return math.sqrt(ddot(diag, diag) + 2.0 * ddot(off, off))

    def dense(self) -> NDArray:
        h = np.diag(self.diag)
        band = np.arange(self.off.size)
        h[band, band + 1] = self.off
        h[band + 1, band] = self.off
        return h


@dataclass
class ObjectiveSpec:
    """A smooth objective with gradient oracle and known constants.

    ``grad`` is the only oracle the optimizer may call; ``value`` and
    ``hess_at`` are optional audit oracles.  ``l1`` and ``l2`` are gradient-
    and Hessian-Lipschitz constants, global unless ``box`` is set, in which
    case they are valid on the hypercube ``[-box, box]^dim``.

    ``grad`` maps a point of shape (dim,) to its gradient.  ``grad_rows``
    declares more: that ``grad`` also maps a (k, dim) stack of points to
    the (k, dim) stack of their gradients, each row with the bits of the
    single call at that row.  It is part of the oracle's contract, so a spec
    declares it only for a ``grad`` written row by row (reductions along
    ``axis=-1``, slices along ``...``).  A matrix product does not qualify:
    ``X @ Q`` rounds unlike ``Q @ x`` (GEMM against GEMV), and on a square
    stack ``Q @ X`` returns a wrong answer without raising.

    ``hess_at`` states the Hessian in a structured form: it maps a point to
    an object with ``matvec(v)`` (H v), ``fro(other=None)`` (|H|_F, or
    |H - H'|_F given the form H' of another point of the same spec) and
    ``dense()`` (the d x d matrix).  A form computes a difference
    from differences of its own data, never as a difference of two squared
    norms, and each answer agrees with dense linear algebra on ``dense()``
    within ``hess_form_rtol(dim)``.  The full audit's comparator ledger
    reads the form, and runs only when a spec states one.  A spec with only
    a dense Hessian H(x) states ``hess_at=lambda x: DenseHessian(H(x))``.
    """

    dim: int
    grad: Callable[[NDArray], NDArray]
    l1: float
    l2: float
    f_lower: float
    x0: NDArray
    value: Optional[Callable[[NDArray], float]] = None
    name: str = "custom"
    box: Optional[float] = None
    grad_rows: bool = False
    hess_at: Optional[Callable[[NDArray], object]] = None

    def __post_init__(self):
        self.x0 = np.asarray(self.x0, dtype=float)
        self.l1 = float(self.l1)
        self.l2 = float(self.l2)
        self.f_lower = float(self.f_lower)
        if self.dim < 1:
            raise InvalidArgument(f"dim must be >= 1, got {self.dim}")
        check_positive("l1", self.l1)
        check_nonnegative("l2", self.l2)
        if self.x0.shape != (self.dim,):
            raise InvalidArgument(
                f"x0 has shape {self.x0.shape}, expected ({self.dim},)"
            )


def eval_gradient(spec: ObjectiveSpec, x: NDArray, counter: Counter) -> NDArray:
    """Evaluate the gradient oracle at a point (d,) or at each row of a
    stack (k, d), charging the run-scoped counter one gradient per point.

    A stack is one ``spec.grad`` call when the spec declares ``grad_rows``,
    and otherwise one call per row, in row order, so an oracle that does not
    declare rows only ever sees a (d,) point.  The result has the shape of
    ``x``.  Shape and finiteness are checked once per call, and a result
    with a NaN or infinite entry is rejected, uncharged.  A finite sum of
    squares over the result's flat view proves every entry finite, so only
    a result whose sum of squares is not (a non-finite entry, or an
    overflow) pays the entrywise test; a non-finite entry makes the sum
    non-finite in any order of addition, so the test is exact at any BLAS
    thread count."""
    x = np.asarray(x, dtype=float)
    if x.ndim not in (1, 2) or x.shape[-1] != spec.dim:
        raise InvalidArgument(
            f"x has shape {x.shape}, expected ({spec.dim},) or (k, {spec.dim})")
    if x.ndim == 1 or spec.grad_rows:
        g = np.asarray(spec.grad(x), dtype=float)
    else:
        rows = [np.asarray(spec.grad(row), dtype=float) for row in x]
        for row in rows:
            if row.shape != (spec.dim,):
                raise InvalidArgument(
                    f"gradient oracle returned shape {row.shape}, expected ({spec.dim},)")
        g = np.stack(rows)
    if g.shape != x.shape:
        raise InvalidArgument(
            f"gradient oracle returned shape {g.shape}, expected {x.shape}")
    flat = g.reshape(-1)
    if not math.isfinite(ddot(flat, flat)) and not np.isfinite(g).all():
        raise InvalidArgument(f"gradient oracle returned non-finite values at {x!r}")
    counter.tick(len(g) if g.ndim == 2 else 1)
    return g


def quadratic_from_matrix(q_mat: NDArray, x0: Optional[NDArray] = None) -> ObjectiveSpec:
    """Spec for f(x) = x'Qx/2 with Q symmetric PSD; l1 = lambda_max(Q), l2 = 0."""
    q_mat = np.asarray(q_mat, dtype=float)
    d = q_mat.shape[0]
    evals = np.linalg.eigvalsh(q_mat)
    if evals[0] < -1e-12 * max(1.0, evals[-1]):
        raise InvalidArgument("quadratic catalog requires a PSD matrix")
    if x0 is None:
        x0 = np.ones(d)
    form = DenseHessian(q_mat.copy())  # one C-ordered copy, never written
    return ObjectiveSpec(
        dim=d,
        grad=lambda x: q_mat @ x,
        value=lambda x: 0.5 * float(x @ (q_mat @ x)),
        hess_at=lambda x: form,
        l1=float(max(evals[-1], 1e-12)),
        l2=0.0,
        f_lower=0.0,
        x0=x0,
        name="quadratic",
    )


def _quadratic(dim: int, seed: int) -> ObjectiveSpec:
    rng = np.random.default_rng(seed)
    evals = rng.uniform(0.2, 2.0, size=dim)
    basis = np.linalg.qr(rng.standard_normal((dim, dim)))[0]
    q_mat = (basis * evals) @ basis.T
    q_mat = 0.5 * (q_mat + q_mat.T)
    x0 = rng.standard_normal(dim)
    x0 /= max(np.linalg.norm(x0), 1e-12)
    spec = quadratic_from_matrix(q_mat, x0=2.0 * x0)
    spec.l1 = float(evals.max())  # exact by construction
    return spec


def _cosine_mixture(dim: int, mu: float = 0.1) -> ObjectiveSpec:
    """f(x) = sum_i (1 - cos x_i) + (mu/2)|x|^2.

    Each coordinate is separable; |cos|, |sin| <= 1 give l1 = 1 + mu and
    l2 = 1 globally.  f* = 0 at the origin (unique for mu > 0), so the start
    point is pi/2 per coordinate to avoid the stationary origin.  ``mu``
    must be nonnegative.
    """
    check_nonnegative("mu", mu)

    def value(x):
        return float(np.add.reduce(1.0 - np.cos(x)) + 0.5 * mu * (x @ x))

    def grad(x):
        return np.sin(x) + mu * x

    def hess_at(x):
        return DiagonalHessian(np.cos(x) + mu)

    return ObjectiveSpec(
        dim=dim,
        grad=grad,
        value=value,
        l1=1.0 + mu,
        l2=1.0,
        f_lower=0.0,
        x0=np.full(dim, 0.5 * np.pi),
        name="cosine_mixture",
        grad_rows=True,
        hess_at=hess_at,
    )


def _coupled_trig(dim: int, kappa: float = 0.2) -> ObjectiveSpec:
    """f(x) = sum_i (1 - cos x_i) + kappa * sum_{i<j} sin x_i sin x_j.

    Row-sum (Gershgorin) bounds give l1 = 1 + 2*kappa*(d-1).  A row bound on
    the directional third derivative gives l2 = 1 + 2*kappa*(d-1)
    + 2*kappa*sqrt(d-1).  The coupling term is at least -kappa*d*(d-1)/2,
    which serves as the recorded lower bound.  ``kappa`` must be
    nonnegative.
    """
    if dim < 2:
        raise InvalidArgument("coupled_trig needs dim >= 2")
    check_nonnegative("kappa", kappa)

    def value(x):
        s = np.sin(x)
        cross = 0.5 * (np.add.reduce(s) ** 2 - np.add.reduce(s**2))
        return float(np.add.reduce(1.0 - np.cos(x)) + kappa * cross)

    def grad(x):
        s = np.sin(x)
        return s + kappa * np.cos(x) * (np.add.reduce(s, axis=-1, keepdims=True) - s)

    def hess_at(x):
        s, c = np.sin(x), np.cos(x)
        return DiagonalOuterHessian(c - kappa * s * (np.add.reduce(s) - s), c, kappa)

    l1 = 1.0 + 2.0 * kappa * (dim - 1)
    l2 = 1.0 + 2.0 * kappa * (dim - 1) + 2.0 * kappa * np.sqrt(dim - 1.0)
    return ObjectiveSpec(
        dim=dim,
        grad=grad,
        value=value,
        l1=l1,
        l2=l2,
        f_lower=-0.5 * kappa * dim * (dim - 1),
        x0=np.full(dim, 0.5 * np.pi),
        name="coupled_trig",
        grad_rows=True,
        hess_at=hess_at,
    )


def _rosenbrock_local(dim: int, box: float = 2.0) -> ObjectiveSpec:
    """Chained Rosenbrock with constants valid on [-box, box]^dim.

    Entry bounds on the Hessian give the row-sum estimates
    l1 = 1200*box^2 + 1200*box + 202 and l2 = 2400*box + 1200.  Iterates
    leaving the box are flagged by the harness, never rejected here.
    ``box`` must be positive.
    """
    if dim < 2:
        raise InvalidArgument("rosenbrock needs dim >= 2")
    check_positive("box", box)

    def value(x):
        return float(np.add.reduce(100.0 * (x[1:] - x[:-1] ** 2) ** 2 + (1.0 - x[:-1]) ** 2))

    def grad(x):
        g = np.zeros_like(x)
        head = x[..., :-1]
        t = x[..., 1:] - head**2
        g[..., :-1] = -400.0 * head * t - 2.0 * (1.0 - head)
        g[..., 1:] += 200.0 * t
        return g

    def hess_at(x):
        # pair i adds 1200 x_i^2 - 400 x_{i+1} + 2 to entry (i, i), 200 to
        # (i+1, i+1) and -400 x_i to both off it; + 0.0 makes -0.0 the 0.0
        # that a sum started at zero gives.  x_i^2 is x_i * x_i, correctly
        # rounded, as in ``value`` and ``grad``
        head = x[:-1]
        diag = np.zeros(dim)
        diag[:-1] = 1200.0 * (head * head) - 400.0 * x[1:] + 2.0
        diag[1:] += 200.0
        return TridiagonalHessian(diag, -400.0 * head + 0.0)

    x0 = np.ones(dim)
    x0[0::2] = -1.2
    return ObjectiveSpec(
        dim=dim,
        grad=grad,
        value=value,
        l1=1200.0 * box**2 + 1200.0 * box + 202.0,
        l2=2400.0 * box + 1200.0,
        f_lower=0.0,
        x0=x0,
        name="rosenbrock_local",
        box=box,
        grad_rows=True,
        hess_at=hess_at,
    )


# family name -> constructor; a family's knobs are its constructor's keyword
# defaults, and the quadratic, the one randomized family, takes the seed
_FAMILIES = {
    "quadratic": _quadratic,
    "cosine_mixture": _cosine_mixture,
    "coupled_trig": _coupled_trig,
    "rosenbrock_local": _rosenbrock_local,
}
CATALOG_NAMES = tuple(_FAMILIES)


def family_knobs(name: str) -> dict:
    """The knobs catalog family ``name`` takes, each with its default."""
    params = inspect.signature(_FAMILIES[name]).parameters.values()
    return {p.name: p.default for p in params if p.default is not p.empty}


def catalog(name: str, dim: int, seed: int = 0, **knobs) -> ObjectiveSpec:
    """Build a catalog problem by name.

    ``seed`` only matters for the randomized quadratic family.  ``knobs``
    go to the family's constructor; one the family does not take is an
    ``InvalidArgument``.
    """
    if dim < 1:
        raise InvalidArgument(f"dim must be >= 1, got {dim}")
    if name not in _FAMILIES:
        raise InvalidArgument(f"unknown problem {name!r}; choose from {CATALOG_NAMES}")
    own = family_knobs(name)
    stray = sorted(set(knobs) - set(own))
    if stray:
        takes = f"the knobs {sorted(own)}" if own else "no knobs"
        raise InvalidArgument(f"{name} takes {takes}, got {stray}")
    args = (dim, seed) if name == "quadratic" else (dim,)
    return _FAMILIES[name](*args, **knobs)


def fd_check_gradient(spec: ObjectiveSpec, x: NDArray, h: float = FD_GRAD_STEP) -> float:
    """Max abs error of the gradient oracle against central differences of f."""
    if spec.value is None:
        raise InvalidArgument("fd_check_gradient needs the value oracle")
    check_positive("finite-difference step", h)
    x = np.asarray(x, dtype=float)
    g = spec.grad(x)
    err = 0.0
    for i in range(spec.dim):
        e = np.zeros(spec.dim)
        e[i] = h
        approx = (spec.value(x + e) - spec.value(x - e)) / (2.0 * h)
        err = max(err, abs(approx - g[i]))
    return err


def fd_check_hessian(spec: ObjectiveSpec, x: NDArray, h: float = FD_HESS_STEP) -> float:
    """Max abs error of the Hessian oracle against central differences of the gradient."""
    if spec.hess_at is None:
        raise InvalidArgument("fd_check_hessian needs the Hessian oracle")
    check_positive("finite-difference step", h)
    x = np.asarray(x, dtype=float)
    h_mat = spec.hess_at(x).dense()
    err = 0.0
    for j in range(spec.dim):
        e = np.zeros(spec.dim)
        e[j] = h
        col = (spec.grad(x + e) - spec.grad(x - e)) / (2.0 * h)
        err = max(err, float(np.max(np.abs(col - h_mat[:, j]))))
    return err
