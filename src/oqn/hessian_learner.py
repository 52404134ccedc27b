"""Projection-free online learning of the Hessian approximation.

The learner plays symmetric matrices against quadratic losses |y - B s|^2
while staying inside the doubled operator-norm ball.  The residual
r = y - B s is the driver's hint error g - h (the hint predicts the gradient
change y with B s), so the driver forms r once and hands it over with s.
Rather than projecting onto the operator-norm ball (a full
eigendecomposition), the learner runs projected gradient steps on a
surrogate linear loss over the cheap Frobenius ball, consulting the
separation oracle once per round to scale the ambient iterate back and, when
outside, tilt the surrogate gradient along the separating hyperplane.  The
oracle settles a round from |W|_F alone, with no matvec and no random draw,
whenever |W|_F <= L1; only the other rounds run Lanczos.

Round structure: the action B_n is needed by the driver one step before its
loss pair (y_n, s_n) exists, so each ``learner_step`` call (a) finishes the
previous round from the pair's residual r and s with the separation result
the previous state kept (surrogate gradient plus Frobenius projection) and
(b) runs the separation oracle on the new ambient iterate to materialize the
next action.  The round counts no matvec of its own.  The initial action is
the zero matrix, whose separation outcome (gamma = 0, inside) is known
without an oracle call.

The round's loss gradient is the rank-2 matrix -(r s' + s r').  W and B
are kept as ``SymOperator`` upper triangles (see ``linops``), so a round
copies W's triangle once and applies the step W - rho * grad as one BLAS
``dsyr2`` call, rho (r s' + s r') added to the triangle in place.  A round
after a separated one reads <grad, B> as -2 r'(B s), one ``dsymv`` on B's
triangle, and adds its tilt as one ``dsyr`` on the separating vector u, so
the tilt S = sign * u u' / L1 is never made dense.  The round takes
|W_next|_F from the triangle in one pass and rescales, with a second pass,
only when W_next leaves the Frobenius ball.  W_next stays a fresh array, so
an earlier state's operator stays valid.

The operator over W_next is a trusted build (``fro=``): the learner hands
over the triangle itself and the norm it already holds, so the build costs
no copy, symmetry check or norm pass.  When the oracle finds W inside the
doubled ball, that operator is reused as B, so a round usually builds one
operator.  A separated round's B = W / gamma is a triangle in the same
layout, and is built on trust too, from its one norm pass.  The product B s
that the tilt reads ticks no counter: it prices the learner's surrogate
loss, not a use of B by the solve.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from numpy.typing import NDArray
from scipy.linalg.blas import dsymv, dsyr, dsyr2

from .eig import SepCase, SepResult, sep
from .errors import InvalidArgument
from .linops import Counter, SymOperator, upper_frobenius
from .rng import RngStream


@dataclass
class LearnerState:
    """Ambient iterate W (Frobenius ball of radius sqrt(d) L1) and played
    action B as operators (B's operator norm at most 2 L1 per the separation
    guarantee; B is W's operator itself when W was inside), the separation
    result ``sep`` that produced B from W, and whether the round that made
    this state was ``plain``: its B was W, W_next stayed in the Frobenius
    ball and ``sep`` answered inside, so B_next - B = rho (r s' + s r')."""

    w_op: SymOperator
    b_op: SymOperator
    sep: SepResult
    plain: bool
    rho: float
    l1: float
    q_per_call: float

    @classmethod
    def fresh(cls, dim: int, l1: float, rho: float, q_per_call: float,
              counter: Counter | None = None) -> "LearnerState":
        zero = SymOperator(np.zeros((dim, dim), order="F"), counter, fro=0.0)
        inside = SepResult(0.0, np.zeros(dim), 0.0, l1, SepCase.INSIDE_DOUBLED, 0)
        return cls(w_op=zero, b_op=zero, sep=inside, plain=False, rho=rho, l1=l1,
                   q_per_call=q_per_call)

    @property
    def dim(self) -> int:
        return self.w_op.dim

    @property
    def counter(self) -> Counter:
        """The run's matvec counter, which every operator of the chain ticks."""
        return self.w_op.counter

    @property
    def b_mat(self) -> NDArray:
        """Dense B, built on each read."""
        return self.b_op.dense()

    @property
    def b_fro(self) -> float:
        """|B|_F, an upper bound on the operator norm of B."""
        return self.b_op.frobenius_norm()


def default_rho(d_radius: float) -> float:
    """Step size 1/(16 D^2), tied to the loss self-bounding constant."""
    if d_radius <= 0:
        raise InvalidArgument(f"radius must be positive, got {d_radius}")
    return 1.0 / (16.0 * d_radius**2)


def learner_step(state: LearnerState, r: NDArray, s: NDArray,
                 rng: RngStream) -> LearnerState:
    """Close the current round, whose loss pair (y, s) has residual
    r = y - B s, and materialize the next action.  Costs no matvec of its
    own, only the separation call, which is free when |W_next|_F <= L1."""
    if r.shape != s.shape or r.ndim != 1:
        raise InvalidArgument(f"r {r.shape} and s {s.shape} must be equal-length vectors")
    # W - rho * grad = W + rho (r s' + s r'), on a fresh copy of W's triangle
    w_next = dsyr2(state.rho, r, s, a=state.w_op.upper.copy(order="F"), overwrite_a=1)
    played = state.sep
    if played.case is SepCase.SEPARATED:
        # tilt = max(0, -<grad, B>), and <grad, B> = -2 r'(B s)
        tilt = max(0.0, 2.0 * float(r @ dsymv(1.0, state.b_op.upper, s)))
        if tilt > 0.0:  # minus rho * tilt * S
            w_next = dsyr(-state.rho * tilt * played.sign / state.l1, played.u,
                          a=w_next, overwrite_a=1)
    radius = math.sqrt(state.dim) * state.l1
    fro = upper_frobenius(w_next)
    projected = fro > radius
    if projected:  # project onto the Frobenius ball
        w_next *= radius / fro
        fro = upper_frobenius(w_next)

    w_op = SymOperator(w_next, state.counter, fro=fro)
    sep_res = sep(w_op, state.l1, state.q_per_call, rng)
    inside = sep_res.case is SepCase.INSIDE_DOUBLED
    if inside:
        b_next = w_op
    else:
        b_upper = w_next / sep_res.gamma
        b_next = SymOperator(b_upper, state.counter, fro=upper_frobenius(b_upper))
    return LearnerState(
        w_op=w_op, b_op=b_next, sep=sep_res,
        plain=played.case is SepCase.INSIDE_DOUBLED and not projected and inside,
        rho=state.rho, l1=state.l1, q_per_call=state.q_per_call,
    )
