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
one learner record, and in it one W, as a ``SymOperator`` upper triangle
(see ``linops``), and each round writes it in place: the step
W - rho * grad is one BLAS ``dsyr2`` call adding rho (r s' + s r').  A round
reads r'W s with one ``dsymv`` taken before W moves (none while W = 0).
After a separated round that product is W s / gamma = B s, which also
prices <grad, B> = -2 r'(B s); the round adds its tilt as one ``dsyr`` on
the separating vector u, so the tilt S = sign * u u' / L1 is never made
dense.  B is read off W and the separation result: W's operator when the
oracle finds W inside the doubled ball, else its view
``shifted(0, scale=1/gamma)``, whose norm follows from W's.  A round builds
no operator and allocates no d x d array.  The product B s that the tilt
reads ticks no counter: it prices the learner's surrogate loss, not a use
of B by the solve.

W's stored norm is an upper bound, kept without a pass over the d^2
storage.  The rank-two step has the closed form (the bookkeeping of Byrd,
Nocedal & Schnabel 1994)

    |W + rho (r s' + s r')|_F^2
        = |W|_F^2 + 4 rho r'W s + 2 rho^2 (|r|^2 |s|^2 + (r's)^2),

evaluated from the stored bound and inflated by its rounding allowance
(``closed_form_sq``); the record carries the bound's slack over the
tightest value the allowances admit.  The exact pass ``upper_frobenius``
resynchronizes the bound on a tilted round, on a round whose bound passes
L1 (so the separation oracle's Frobenius certificate and the projection
test decide as they would on the exact value), for the projection
rescale, when the slack would pass ``FRO_BOUND_RTOL`` of the norm (a round
that cancels most of W), when a nonzero pair's squares underflow, and at
least every ``FRO_SYNC_ROUNDS`` rounds that move W.  The bound feeds the
PSD certificate 1/eta - |B|_F / 2 and the separation oracle, so it must
never round below |W|_F; at most it stands ``FRO_BOUND_RTOL`` above it.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass

import numpy as np
from numpy.typing import NDArray
from scipy.linalg.blas import ddot, dsymv, dsyr, dsyr2

from .eig import SepCase, SepResult, sep
from .errors import InvalidArgument, check_positive
from .linops import Counter, SymOperator, upper_frobenius
from .rng import RngStream

# a pass over W's storage at least every this many rounds that move W
FRO_SYNC_ROUNDS = 16
# the stored norm stays at most this far above |W|_F, relatively
FRO_BOUND_RTOL = 1e-10
EPS = sys.float_info.epsilon
# the closed form's squares must be normal: a pair's, and the result's with
# room below it for every underflowed operation's absolute error
TINY = sys.float_info.min
FRO_SQ_FLOOR = TINY / EPS


@dataclass
class LearnerState:
    """The run's one learner record, which every round updates in place:
    the ambient iterate W (Frobenius ball of radius sqrt(d) L1) as an
    operator, the separation result ``sep`` that turns W into the played
    action B (operator norm at most 2 L1 per the separation guarantee), and
    whether the last round was ``plain``: its B was W, W_next stayed in the
    Frobenius ball and ``sep`` answered inside, so B_next - B =
    rho (r s' + s r').  W's operator holds an upper bound on |W|_F (see the
    module docstring): ``fro_slack`` bounds the bound's square minus |W|_F^2,
    and ``fro_rounds`` counts the rounds it has been carried in closed form
    since the last exact pass; both are 0 right after one.  An operator read
    from the record describes W or B only until the next round."""

    w_op: SymOperator
    sep: SepResult
    plain: bool
    rho: float
    l1: float
    q_per_call: float
    fro_slack: float = 0.0
    fro_rounds: int = 0

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


def closed_form_sq(fro: float, cross: float, rr: float, ss: float, rs: float,
                   rho: float, dim: int) -> tuple[float, float]:
    """|W + rho (r s' + s r')|_F^2 by the closed form, from fro >= |W|_F,
    cross = r'W s, rr = |r|^2, ss = |s|^2 and rs = r's, all as computed;
    returns it with its rounding allowance, which the exact value does not
    undercut.  The allowance is (d + 8) eps times the sum of the terms'
    magnitudes: a d-term dot product rounds by at most d eps / 2 of the sum
    of its terms' magnitudes (Higham 2002, Sec. 3.1), r'W s chains two
    (``dsymv``, then ``ddot``) and |r'W s| <= |r| |s| |W|_F; on fro^2 the
    same d eps covers the rounding of the exact pass it may come from, and
    8 eps the few scalar operations."""
    f2 = fro * fro
    quad = 2.0 * rho * rho * (rr * ss + rs * rs)
    sq = f2 + 4.0 * rho * cross + quad
    err = (dim + 8) * EPS * (f2 + 4.0 * rho * math.sqrt(rr) * math.sqrt(ss) * fro + quad)
    return sq, err


def _carry_norm(state: LearnerState, r: NDArray, s: NDArray, cross: float) -> bool:
    """Carry W's stored norm bound through the round's rank-two step in
    closed form, with ``cross`` = r'W s of the W before it; False, with
    nothing stored, when the round must take the exact pass instead."""
    rr, ss = ddot(r, r), ddot(s, s)
    if not (rr >= TINY and ss >= TINY):  # a zero, underflowed or non-finite pair
        # a zero (finite) pair leaves W, and so its bound, as it was
        return rr + ss < math.inf and not (s.any() and r.any())
    sq, err = closed_form_sq(state.w_op.fro, cross, rr, ss, ddot(r, s), state.rho,
                             state.dim)
    bound_sq = sq + err
    slack = state.fro_slack + 2.0 * err
    if not (bound_sq >= FRO_SQ_FLOOR and state.fro_rounds + 1 < FRO_SYNC_ROUNDS
            and slack <= FRO_BOUND_RTOL * (bound_sq - slack)):
        return False
    bound = math.sqrt(bound_sq)
    if bound > state.l1:  # the exact value decides sep's certificate
        return False
    state.w_op.fro, state.fro_slack = bound, slack
    state.fro_rounds += 1
    return True


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
        rbs = ddot(r, dsymv(1.0 / played.gamma, w_op.upper, s))
        tilt, cross = max(0.0, 2.0 * rbs), played.gamma * rbs
    elif w_op.fro > 0.0:  # else W = 0, and so is W s
        cross = ddot(r, dsymv(1.0, w_op.upper, s))
    # W - rho * grad = W + rho (r s' + s r'), in W's own triangle
    w_op.upper = dsyr2(state.rho, r, s, a=w_op.upper, overwrite_a=1)
    if tilt > 0.0:  # minus rho * tilt * S
        w_op.upper = dsyr(-state.rho * tilt * played.sign / state.l1, played.u,
                          a=w_op.upper, overwrite_a=1)
    if tilt > 0.0 or not _carry_norm(state, r, s, cross):
        w_op.fro = upper_frobenius(w_op.upper)
        state.fro_slack, state.fro_rounds = 0.0, 0
    radius = math.sqrt(state.dim) * state.l1
    projected = w_op.fro > radius  # only after an exact pass: a bound is <= L1
    if projected:  # project onto the Frobenius ball
        w_op.upper *= radius / w_op.fro
        w_op.fro = upper_frobenius(w_op.upper)

    state.sep = sep(w_op, state.l1, state.q_per_call, rng)
    inside = state.sep.case is SepCase.INSIDE_DOUBLED
    state.plain = played.case is SepCase.INSIDE_DOUBLED and not projected and inside
