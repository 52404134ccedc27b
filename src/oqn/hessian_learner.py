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
previous round from the pair's residual r and s with the cached separation
data (surrogate gradient plus Frobenius projection) and (b) immediately runs
the separation oracle on the new ambient iterate to materialize the next
action.  The round applies no operator of its own.  The initial action is
the zero matrix, whose separation outcome (gamma = 0, inside) is
deterministic and therefore cached without an oracle call.

The round's loss gradient is the rank-2 matrix -(r s' + s r').  A round
with W inside the doubled ball forms M = r s' once, adds its transpose (an
exactly symmetric sum), scales the sum by rho in place and adds W, the same
bits as W - rho * grad.  It takes |W_next|_F in one pass and rescales, with a
second pass, only when W_next leaves the Frobenius ball.
W_next stays a fresh array, so an earlier state's operator stays valid.

The played action lives in one ``SymOperator`` (``LearnerState.b_op``), which
the driver applies directly and views as its trust-region matrix.  The
operator over W_next is a trusted build (``fro=``): the learner hands over
the norm it already holds and the exactly symmetric matrix itself, so the
build costs no copy, symmetry check or norm pass.  When the oracle finds W
inside the doubled ball, that operator is reused as B, so a round usually
builds one operator.  A separated round's B = W / gamma is exactly symmetric
as W is, and is built on trust too, from its one norm pass.  Its Frobenius
norm gives the driver a free operator-norm bound on B.  The tilt
S = sign * u u' / L1 of a separated round is kept as (u, sign) and made
dense only in the round that reads it.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from numpy.typing import NDArray

from .eig import SepCase, sep, separating_matrix
from .errors import DimensionMismatch, NonPositiveRadius
from .linops import Counter, SymOperator
from .rng import RngStream


@dataclass
class LearnerState:
    """Ambient iterate W (Frobenius ball of radius sqrt(d) L1), played action
    B as an operator (operator norm at most 2 L1 per the separation
    guarantee), and the cached separation data (gamma, u, sign) that produced
    B from W: the tilt S = sign * u u' / L1, with sign 0 when W was inside."""

    w_mat: NDArray
    b_op: SymOperator
    gamma: float
    u: NDArray
    sign: float
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
        return cls(w_mat=zero, b_op=SymOperator(zero, counter, fro=0.0), gamma=0.0,
                   u=np.zeros(dim), sign=0.0, rho=rho, l1=l1, dim=dim,
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
    the cost of the separation call that produced the next action and whether
    that call was settled by the Frobenius certificate |W|_F <= L1 (no Lanczos
    run, no random draw)."""

    gamma: float
    loss: float
    case: SepCase
    sep_matvecs: int
    certified: bool


def default_rho(d_radius: float) -> float:
    """Step size 1/(16 D^2), tied to the loss self-bounding constant."""
    if d_radius <= 0:
        raise NonPositiveRadius(f"radius must be positive, got {d_radius}")
    return 1.0 / (16.0 * d_radius**2)


def learner_step(state: LearnerState, r: NDArray, s: NDArray,
                 rng: RngStream) -> tuple[LearnerState, LearnerAudit]:
    """Close the current round, whose loss pair (y, s) has residual
    r = y - B s, and materialize the next action.  Costs no matvec of its
    own, only the separation call, which is free when |W_next|_F <= L1."""
    if r.shape != s.shape or r.ndim != 1:
        raise DimensionMismatch(f"r {r.shape} and s {s.shape} must be equal-length vectors")
    # minus the loss gradient at B; an entry and its mirror add the same two
    # products, so the sum is exactly symmetric
    m = np.outer(r, s)
    neg_grad = m + m.T
    round_case = SepCase.INSIDE_DOUBLED if state.gamma <= 1.0 else SepCase.SEPARATED
    if round_case is SepCase.SEPARATED:
        grad = -neg_grad
        tilt = max(0.0, -float(np.vdot(grad, state.b_mat)))
        s_mat = separating_matrix(state.u, state.sign, state.l1)
        w_next = state.w_mat - state.rho * (grad + tilt * s_mat)
    else:
        # W - rho * grad, bit for bit, in a fresh array
        w_next = neg_grad
        w_next *= state.rho
        w_next += state.w_mat
    radius = np.sqrt(state.dim) * state.l1
    fro = float(np.linalg.norm(w_next))
    if fro > radius:  # project onto the Frobenius ball
        w_next *= radius / fro
        fro = float(np.linalg.norm(w_next))

    w_op = SymOperator(w_next, state.counter, fro=fro)
    sep_res = sep(w_op, state.l1, state.q_per_call, rng)
    if sep_res.case is SepCase.INSIDE_DOUBLED:
        b_next = w_op
    else:
        b_mat = w_next / sep_res.gamma
        b_next = SymOperator(b_mat, state.counter, fro=float(np.linalg.norm(b_mat)))
    next_state = LearnerState(
        w_mat=w_next, b_op=b_next, gamma=sep_res.gamma, u=sep_res.u,
        sign=sep_res.sign, rho=state.rho, l1=state.l1, dim=state.dim,
        q_per_call=state.q_per_call, counter=state.counter,
    )
    audit = LearnerAudit(
        gamma=state.gamma,
        loss=float(r @ r),
        case=round_case,
        sep_matvecs=sep_res.matvecs_used,
        # Lanczos spends at least one matvec, so zero means the certificate
        certified=sep_res.matvecs_used == 0,
    )
    return next_state, audit
