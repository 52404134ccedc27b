"""Projection-free online learning of the Hessian approximation.

The learner plays symmetric matrices against quadratic losses |y - B s|^2
while staying inside the doubled operator-norm ball.  Rather than projecting
onto the operator-norm ball (a full eigendecomposition), it runs projected
gradient steps on a surrogate linear loss over the cheap Frobenius ball,
consulting the separation oracle once per round to scale the ambient iterate
back and, when outside, tilt the surrogate gradient along the separating
hyperplane.

Round structure: the action B_n is needed by the driver one step before its
loss pair (y_n, s_n) exists, so each ``learner_step`` call (a) finishes the
previous round with the cached separation data (surrogate gradient plus
Frobenius projection) and (b) immediately runs the separation oracle on the
new ambient iterate to materialize the next action.  The initial action is
the zero matrix, whose separation outcome (gamma = 0, inside) is
deterministic and therefore cached without an oracle call.

The played action lives in one ``SymOperator`` (``LearnerState.b_op``), which
the driver applies directly and views as its trust-region matrix.  When the
oracle finds W inside the doubled ball, the operator built for the
separation call is reused as B, so a round usually builds one operator.
Its Frobenius norm, computed at build time, gives the driver a free
operator-norm bound on B.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from numpy.typing import NDArray

from .eig import SepCase, sep
from .errors import DimensionMismatch, NonPositiveRadius
from .linops import Counter, SymOperator
from .rng import RngStream


@dataclass
class QuadLoss:
    """One observed loss |y - B s|^2 (y, s of ambient dimension)."""

    y: NDArray
    s: NDArray

    def __post_init__(self):
        self.y = np.asarray(self.y, dtype=float)
        self.s = np.asarray(self.s, dtype=float)
        if self.y.shape != self.s.shape or self.y.ndim != 1:
            raise DimensionMismatch(
                f"y {self.y.shape} and s {self.s.shape} must be equal-length vectors"
            )


@dataclass
class LearnerState:
    """Ambient iterate W (Frobenius ball of radius sqrt(d) L1), played action
    B as an operator (operator norm at most 2 L1 per the separation
    guarantee), and the cached separation data (gamma, S) that produced B
    from W."""

    w_mat: NDArray
    b_op: SymOperator
    gamma: float
    s_mat: NDArray
    rho: float
    l1: float
    dim: int
    q_per_call: float
    counter: Counter

    @classmethod
    def fresh(cls, dim: int, l1: float, rho: float, q_per_call: float,
              counter: Counter | None = None) -> "LearnerState":
        counter = counter if counter is not None else Counter()
        zero = np.zeros((dim, dim))
        return cls(w_mat=zero, b_op=SymOperator(zero, counter), gamma=0.0,
                   s_mat=zero.copy(), rho=rho, l1=l1, dim=dim,
                   q_per_call=q_per_call, counter=counter)

    @property
    def b_mat(self) -> NDArray:
        """Dense B, no copy.  Treat as read-only."""
        return self.b_op.dense()

    @property
    def b_fro(self) -> float:
        """|B|_F, an upper bound on the operator norm of B."""
        return self.b_op.frobenius_norm()


@dataclass
class LearnerAudit:
    """Per-round record: the scaling and loss of the round just closed, plus
    the cost of the separation call that produced the next action."""

    gamma: float
    loss: float
    surrogate_grad_norm: float
    case: SepCase
    sep_matvecs: int


def default_rho(d_radius: float) -> float:
    """Step size 1/(16 D^2), tied to the loss self-bounding constant."""
    if d_radius <= 0:
        raise NonPositiveRadius(f"radius must be positive, got {d_radius}")
    return 1.0 / (16.0 * d_radius**2)


def loss(b_op: SymOperator, q: QuadLoss) -> float:
    """|y - B s|^2; one matvec."""
    r = q.y - b_op.apply(q.s)
    return float(r @ r)


def loss_gradient(b_op: SymOperator, q: QuadLoss) -> NDArray:
    """Gradient -r s' - s r' with r = y - B s; symmetric; one matvec."""
    r = q.y - b_op.apply(q.s)
    return -np.outer(r, q.s) - np.outer(q.s, r)


def _project_frobenius(mat: NDArray, radius: float) -> NDArray:
    scale = radius / max(radius, float(np.linalg.norm(mat)))
    return scale * mat


def learner_step(state: LearnerState, q: QuadLoss,
                 rng: RngStream) -> tuple[LearnerState, LearnerAudit]:
    """Close the current round with loss pair ``q`` and materialize the next
    action.  Costs one matvec (the B s product) plus one separation call."""
    r = q.y - state.b_op.apply(q.s)
    grad = -np.outer(r, q.s) - np.outer(q.s, r)
    round_case = SepCase.INSIDE_DOUBLED if state.gamma <= 1.0 else SepCase.SEPARATED
    if round_case is SepCase.SEPARATED:
        tilt = max(0.0, -float(np.vdot(grad, state.b_mat)))
        g_tilde = grad + tilt * state.s_mat
    else:
        g_tilde = grad
    w_next = _project_frobenius(state.w_mat - state.rho * g_tilde,
                                np.sqrt(state.dim) * state.l1)

    w_op = SymOperator(w_next, state.counter)
    sep_res = sep(w_op, state.l1, state.q_per_call, rng)
    if sep_res.case is SepCase.INSIDE_DOUBLED:
        b_next = w_op
    else:
        b_next = SymOperator(w_next / sep_res.gamma, state.counter)
    next_state = LearnerState(
        w_mat=w_next, b_op=b_next, gamma=sep_res.gamma, s_mat=sep_res.s_mat,
        rho=state.rho, l1=state.l1, dim=state.dim, q_per_call=state.q_per_call,
        counter=state.counter,
    )
    audit = LearnerAudit(
        gamma=state.gamma,
        loss=float(r @ r),
        surrogate_grad_norm=float(np.linalg.norm(g_tilde)),
        case=round_case,
        sep_matvecs=sep_res.matvecs_used,
    )
    return next_state, audit
