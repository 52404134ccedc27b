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
the record kept (surrogate gradient plus Frobenius projection) and
(b) runs the separation oracle on the new ambient iterate to materialize the
next action.  The round counts no matvec of its own.  The initial action is
the zero matrix, whose separation outcome (gamma = 0, inside) is known
without an oracle call.

The round's loss gradient is the rank-2 matrix -(r s' + s r').  A run keeps
one learner record, and in it one W, a ``SymOperator`` build that each round
moves in place with ``update``: W - rho * grad adds rho (r s' + s r') and a
tilted round's -rho * tilt * S, S = sign * u u' / L1 on the separating
vector u.  The round prices r'W s with ``form`` before W moves (not while
W = 0); after a separated round that is gamma r'(B s), which also prices
<grad, B> = -2 r'(B s).  B is W's operator when the oracle finds W inside
the doubled ball, else its view ``shifted(0, scale=1/gamma)``.  A round
builds no operator and allocates no d x d array.  W's stored norm is a bound
under ``linops``'s invariant; the learner's own policy is that a round whose
bound would pass L1 takes the exact pass, so the separation oracle's
Frobenius certificate and the Frobenius-ball projection decide on the exact
value.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from numpy.typing import NDArray

from .eig import SepCase, SepResult, sep
from .errors import InvalidArgument, check_positive
from .linops import Counter, SymOperator
from .rng import RngStream


@dataclass
class LearnerState:
    """The run's one learner record, which every round updates in place:
    the ambient iterate W (Frobenius ball of radius sqrt(d) L1) as an
    operator, the separation result ``sep`` that turns W into the played
    action B (operator norm at most 2 L1 per the separation guarantee), and
    whether the last round was ``plain``: its B was W, W_next stayed in the
    Frobenius ball and ``sep`` answered inside, so B_next - B =
    rho (r s' + s r').  An operator read from the record describes W or B
    only until the next round."""

    w_op: SymOperator
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
        return cls(w_op=zero, sep=inside, plain=False, rho=rho, l1=l1,
                   q_per_call=q_per_call)

    @property
    def b_op(self) -> SymOperator:
        """B: W's operator when ``sep`` answered inside, else its 1/gamma view."""
        if self.sep.case is SepCase.INSIDE_DOUBLED:
            return self.w_op
        return self.w_op.shifted(0.0, scale=1.0 / self.sep.gamma)

    @property
    def dim(self) -> int:
        return self.w_op.dim

    @property
    def counter(self) -> Counter:
        """The run's matvec counter, which W's operator and its views tick."""
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
    check_positive("radius", d_radius)
    return 1.0 / (16.0 * d_radius**2)


def learner_step(state: LearnerState, r: NDArray, s: NDArray, rng: RngStream) -> None:
    """Close the current round, whose loss pair (y, s) has residual
    r = y - B s, and materialize the next action, in ``state``.  Costs no
    matvec of its own, only the separation call, which is free when
    |W_next|_F <= L1."""
    if r.shape != s.shape or r.ndim != 1:
        raise InvalidArgument(f"r {r.shape} and s {s.shape} must be equal-length vectors")
    played, w_op = state.sep, state.w_op
    tilt = cross = 0.0
    if played.case is SepCase.SEPARATED:
        # tilt = max(0, -<grad, B>), and <grad, B> = -2 r'(B s) with
        # B = W / gamma, read before W moves
        rbs = w_op.form(r, s, 1.0 / played.gamma)
        tilt, cross = max(0.0, 2.0 * rbs), played.gamma * rbs
    elif w_op.fro > 0.0:  # else W = 0, and so is W s
        cross = w_op.form(r, s)
    # W - rho * grad = W + rho (r s' + s r'), minus rho * tilt * S
    w_op.update(state.rho, r, s, cross, limit=state.l1,
                beta=-state.rho * tilt * played.sign / state.l1,
                u=played.u if tilt > 0.0 else None)
    projected = w_op.rescale(math.sqrt(state.dim) * state.l1)  # a bound is <= L1 <= radius

    state.sep = sep(w_op, state.l1, state.q_per_call, rng)
    inside = state.sep.case is SepCase.INSIDE_DOUBLED
    state.plain = played.case is SepCase.INSIDE_DOUBLED and not projected and inside
