"""Objective oracles and the catalog of test problems with honest constants.

The optimizer consumes only the gradient oracle; value and Hessian oracles
exist for auditing and are never counted.  Catalog constants are global
Lipschitz bounds for the trigonometric families and documented box-local
bounds for the Rosenbrock chain (the spec of each family is in its
constructor's docstring).
"""

from __future__ import annotations

import inspect
import math
from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np
from numpy.typing import NDArray

from .errors import InvalidArgument
from .linops import Counter

FD_GRAD_STEP = 1e-5
FD_HESS_STEP = 1e-4


@dataclass
class ObjectiveSpec:
    """A smooth objective with gradient oracle and known constants.

    ``grad`` is the only oracle the optimizer may call; ``value`` and
    ``hess`` are optional audit oracles.  ``l1`` and ``l2`` are gradient- and
    Hessian-Lipschitz constants, global unless ``box`` is set, in which case
    they are valid on the hypercube ``[-box, box]^dim``.
    """

    dim: int
    grad: Callable[[NDArray], NDArray]
    l1: float
    l2: float
    f_lower: float
    x0: NDArray
    value: Optional[Callable[[NDArray], float]] = None
    hess: Optional[Callable[[NDArray], NDArray]] = None
    name: str = "custom"
    box: Optional[float] = None

    def __post_init__(self):
        self.x0 = np.asarray(self.x0, dtype=float)
        self.l1 = float(self.l1)
        self.l2 = float(self.l2)
        self.f_lower = float(self.f_lower)
        if self.dim < 1:
            raise InvalidArgument(f"dim must be >= 1, got {self.dim}")
        if not 0.0 < self.l1 < math.inf:
            raise InvalidArgument("l1 must be positive and finite")
        if not 0.0 <= self.l2 < math.inf:
            raise InvalidArgument("l2 must be nonnegative and finite")
        if self.x0.shape != (self.dim,):
            raise InvalidArgument(
                f"x0 has shape {self.x0.shape}, expected ({self.dim},)"
            )


def eval_gradient(spec: ObjectiveSpec, x: NDArray, counter: Counter) -> NDArray:
    """Evaluate the gradient oracle once, charging the run-scoped counter."""
    x = np.asarray(x, dtype=float)
    if x.shape != (spec.dim,):
        raise InvalidArgument(f"x has shape {x.shape}, expected ({spec.dim},)")
    g = np.asarray(spec.grad(x), dtype=float)
    if g.shape != (spec.dim,):
        raise InvalidArgument(
            f"gradient oracle returned shape {g.shape}, expected ({spec.dim},)")
    if not np.isfinite(g).all():
        raise InvalidArgument(f"gradient oracle returned non-finite values at {x!r}")
    counter.tick()
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
    return ObjectiveSpec(
        dim=d,
        grad=lambda x: q_mat @ x,
        value=lambda x: 0.5 * float(x @ (q_mat @ x)),
        hess=lambda x: q_mat.copy(),
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
    point is pi/2 per coordinate to avoid the stationary origin.
    """

    def value(x):
        return float(np.sum(1.0 - np.cos(x)) + 0.5 * mu * (x @ x))

    def grad(x):
        return np.sin(x) + mu * x

    def hess(x):
        return np.diag(np.cos(x) + mu)

    return ObjectiveSpec(
        dim=dim,
        grad=grad,
        value=value,
        hess=hess,
        l1=1.0 + mu,
        l2=1.0,
        f_lower=0.0,
        x0=np.full(dim, 0.5 * np.pi),
        name="cosine_mixture",
    )


def _coupled_trig(dim: int, kappa: float = 0.2) -> ObjectiveSpec:
    """f(x) = sum_i (1 - cos x_i) + kappa * sum_{i<j} sin x_i sin x_j.

    Row-sum (Gershgorin) bounds give l1 = 1 + 2*kappa*(d-1).  A row bound on
    the directional third derivative gives l2 = 1 + 2*kappa*(d-1)
    + 2*kappa*sqrt(d-1).  The coupling term is at least -kappa*d*(d-1)/2,
    which serves as the recorded lower bound.
    """
    if dim < 2:
        raise InvalidArgument("coupled_trig needs dim >= 2")

    def value(x):
        s = np.sin(x)
        cross = 0.5 * (np.sum(s) ** 2 - np.sum(s**2))
        return float(np.sum(1.0 - np.cos(x)) + kappa * cross)

    def grad(x):
        s = np.sin(x)
        return s + kappa * np.cos(x) * (np.sum(s) - s)

    def hess(x):
        s, c = np.sin(x), np.cos(x)
        h = kappa * np.outer(c, c)
        np.fill_diagonal(h, c - kappa * s * (np.sum(s) - s))
        return h

    l1 = 1.0 + 2.0 * kappa * (dim - 1)
    l2 = 1.0 + 2.0 * kappa * (dim - 1) + 2.0 * kappa * np.sqrt(dim - 1.0)
    return ObjectiveSpec(
        dim=dim,
        grad=grad,
        value=value,
        hess=hess,
        l1=l1,
        l2=l2,
        f_lower=-0.5 * kappa * dim * (dim - 1),
        x0=np.full(dim, 0.5 * np.pi),
        name="coupled_trig",
    )


def _rosenbrock_local(dim: int, box: float = 2.0) -> ObjectiveSpec:
    """Chained Rosenbrock with constants valid on [-box, box]^dim.

    Entry bounds on the Hessian give the row-sum estimates
    l1 = 1200*box^2 + 1200*box + 202 and l2 = 2400*box + 1200.  Iterates
    leaving the box are flagged by the harness, never rejected here.
    """
    if dim < 2:
        raise InvalidArgument("rosenbrock needs dim >= 2")

    def value(x):
        return float(np.sum(100.0 * (x[1:] - x[:-1] ** 2) ** 2 + (1.0 - x[:-1]) ** 2))

    def grad(x):
        g = np.zeros_like(x)
        t = x[1:] - x[:-1] ** 2
        g[:-1] = -400.0 * x[:-1] * t - 2.0 * (1.0 - x[:-1])
        g[1:] += 200.0 * t
        return g

    def hess(x):
        h = np.zeros((dim, dim))
        for i in range(dim - 1):
            h[i, i] += 1200.0 * x[i] ** 2 - 400.0 * x[i + 1] + 2.0
            h[i + 1, i + 1] += 200.0
            h[i, i + 1] += -400.0 * x[i]
            h[i + 1, i] += -400.0 * x[i]
        return h

    x0 = np.ones(dim)
    x0[0::2] = -1.2
    return ObjectiveSpec(
        dim=dim,
        grad=grad,
        value=value,
        hess=hess,
        l1=1200.0 * box**2 + 1200.0 * box + 202.0,
        l2=2400.0 * box + 1200.0,
        f_lower=0.0,
        x0=x0,
        name="rosenbrock_local",
        box=box,
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
    if not 0.0 < h < math.inf:
        raise InvalidArgument("finite-difference step must be positive and finite")
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
    if spec.hess is None:
        raise InvalidArgument("fd_check_hessian needs the Hessian oracle")
    if not 0.0 < h < math.inf:
        raise InvalidArgument("finite-difference step must be positive and finite")
    x = np.asarray(x, dtype=float)
    h_mat = spec.hess(x)
    err = 0.0
    for j in range(spec.dim):
        e = np.zeros(spec.dim)
        e[j] = h
        col = (spec.grad(x + e) - spec.grad(x - e)) / (2.0 * h)
        err = max(err, float(np.max(np.abs(col - h_mat[:, j]))))
    return err
