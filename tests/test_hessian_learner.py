import copy
import dataclasses
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.linalg.blas import ddot, dsymv, dsyr, dsyr2

from oqn import driver, hessian_learner, linops
from oqn.driver import compute_hyperparams
from oqn.eig import SepCase, SepResult, sep
from oqn.errors import InvalidArgument
from oqn.hessian_learner import LearnerState, default_rho, learner_step
from oqn.linops import FRO_BOUND_RTOL, FRO_SYNC_ROUNDS, Counter, SymOperator, upper_frobenius
from oqn.problems import catalog
from oqn.rng import RngStream
from oqn.verify import FRO_RTOL, random_symmetric, triangle_ok


def e(i, d):
    v = np.zeros(d)
    v[i] = 1.0
    return v


def pair_step(state, y, s, rng):
    """One learner round on the loss pair (y, s), its residual formed densely."""
    learner_step(state, y - state.b_op.dense() @ s, s, rng)


def state_at(w_op, sep_res=None, rho=1.0, l1=1e3):
    """A learner state over the operator ``w_op``, whose kept separation
    result is ``sep_res``, by default inside at gamma 0 (so B = W)."""
    fresh = LearnerState.fresh(w_op.dim, l1, rho, 0.01)
    return dataclasses.replace(fresh, w_op=w_op, sep=sep_res or fresh.sep)


def play_round(b, y, s):
    """One learner round at W = B = b, well inside both balls, on the loss
    pair (y, s): returns the loss gradient, read off the unprojected step as
    (W - W_next) / rho with rho = 1."""
    state = state_at(SymOperator(b))
    learner_step(state, y - b @ s, s, RngStream(0))
    return b - state.w_op.dense()


class TestLossGradient:
    def test_symbolic_rank_two_case(self):
        # B = 0, y = e1, s = e2: gradient is -(e1 e2' + e2 e1')
        g = play_round(np.zeros((2, 2)), e(0, 2), e(1, 2))
        np.testing.assert_allclose(g, -np.array([[0.0, 1.0], [1.0, 0.0]]), atol=1e-15)

    @given(st.integers(0, 10_000))
    @settings(max_examples=30, deadline=None)
    def test_matches_symmetric_finite_differences(self, seed):
        # oracle: central differences along symmetric coordinate directions
        rng = np.random.default_rng(seed)
        d = 4
        b = random_symmetric(rng, d)
        y, s = rng.standard_normal(d), rng.standard_normal(d)
        g = play_round(b, y, s)
        h = 1e-6

        def ell(mat):
            return float(np.sum((y - mat @ s) ** 2))

        for i in range(d):
            for j in range(i, d):
                direction = np.zeros((d, d))
                direction[i, j] = direction[j, i] = 1.0
                fd = (ell(b + h * direction) - ell(b - h * direction)) / (2 * h)
                assert fd == pytest.approx(float(np.vdot(g, direction)), abs=1e-5)


class TestDefaultRho:
    @pytest.mark.parametrize("radius,expected", [(1.0, 1 / 16), (0.5, 0.25), (2.0, 1 / 64)])
    def test_values(self, radius, expected):
        assert default_rho(radius) == pytest.approx(expected)

    def test_rejects_nonpositive(self):
        with pytest.raises(InvalidArgument, match="radius must be positive"):
            default_rho(0.0)


class TestLearnerStep:
    @pytest.mark.parametrize("r,s", [
        (np.ones(3), np.ones(2)),
        (np.ones(3), np.ones((3, 1))),
        (np.ones((3, 1)), np.ones((3, 1))),
    ])
    def test_mismatched_pair_rejected(self, r, s):
        state = LearnerState.fresh(3, 1.0, default_rho(1.0), 0.01)
        with pytest.raises(InvalidArgument, match="must be equal-length vectors"):
            learner_step(state, r, s, RngStream(0))

    def test_zero_direction_no_motion(self):
        state = LearnerState.fresh(3, 1.0, default_rho(1.0), 0.01)
        pair_step(state, np.array([1.0, 0.0, 0.0]), np.zeros(3), RngStream(0))
        np.testing.assert_allclose(state.w_op.dense(), 0.0)
        np.testing.assert_allclose(state.b_op.dense(), 0.0)

    def test_hand_worked_rank_one_update(self):
        # W = 0, y = s = e1, rho = 1/16: surrogate gradient -2 e1 e1',
        # step lands inside the Frobenius ball, no scaling
        state = LearnerState.fresh(2, 1.0, 1.0 / 16.0, 0.01)
        played = state.sep
        pair_step(state, e(0, 2), e(0, 2), RngStream(1))
        expected = np.zeros((2, 2))
        expected[0, 0] = 1.0 / 8.0
        np.testing.assert_allclose(state.w_op.dense(), expected, atol=1e-15)
        # the round's own case was the fresh state's, and its answer certified
        assert played.gamma == 0.0 and played.case is SepCase.INSIDE_DOUBLED
        assert state.sep.certified and state.sep.case is SepCase.INSIDE_DOUBLED and state.plain
        assert state.b_op is state.w_op and state.counter.count == 0

    def test_projection_scales_by_half_exactly(self):
        # engineer |W - rho G| = 2 sqrt(d) L1 so the projection halves it
        d, l1, rho = 2, 1.0, 1.0 / 16.0
        c = np.sqrt(d) * l1 / rho  # G = -2c e1e1', |rho G| = 2 sqrt(d) L1
        state = LearnerState.fresh(d, l1, rho, 0.01)
        pair_step(state, c * e(0, d), e(0, d), RngStream(2))
        expected = np.zeros((d, d))
        expected[0, 0] = np.sqrt(d) * l1
        np.testing.assert_allclose(state.w_op.dense(), expected, rtol=1e-13)

    def test_separated_round_plays_one_scaled_operator(self):
        # same round as above: |W|_op = sqrt(2) L1 > L1, so the oracle
        # separates and B = W / gamma is a view over W's triangle
        d, l1, rho = 2, 1.0, 1.0 / 16.0
        state = LearnerState.fresh(d, l1, rho, 0.01)
        pair_step(state, np.sqrt(d) * l1 / rho * e(0, d), e(0, d), RngStream(2))
        gamma = state.sep.gamma
        assert gamma > 1.0 and state.sep.case is SepCase.SEPARATED
        assert state.b_op is not state.w_op and state.b_op.upper is state.w_op.upper
        assert triangle_ok(state.b_op)
        w_fro = np.linalg.norm(state.w_op.dense())
        assert abs(state.b_op.frobenius_norm() - w_fro / gamma) <= FRO_RTOL * w_fro / gamma
        np.testing.assert_allclose(state.b_op.dense(), state.w_op.dense() / gamma, rtol=1e-15)

    def test_rounds_write_one_triangle(self, np_rng):
        # a chain of rounds with a small ball, which project and separate,
        # keeps one record: the fresh state's W operator over its triangle,
        # and B read off it, W itself or W / gamma
        d, l1 = 6, 0.05
        state = LearnerState.fresh(d, l1, default_rho(1.0), 0.01)
        w_op, upper = state.w_op, state.w_op.upper
        stream = RngStream(5)
        separated = projected = 0
        for _ in range(40):
            s = np_rng.standard_normal(d)
            s /= np.linalg.norm(s)
            pair_step(state, np_rng.standard_normal(d), s, stream)
            assert state.w_op is w_op and w_op.upper is upper
            assert state.b_op.upper is upper
            if state.sep.case is SepCase.SEPARATED:
                separated += 1
                w = w_op.dense()
                assert (np.linalg.norm(state.b_op.dense() - w / state.sep.gamma)
                        <= FRO_RTOL * np.linalg.norm(w) / state.sep.gamma)
            else:
                assert state.b_op is w_op
            projected += state.w_op.frobenius_norm() == pytest.approx(np.sqrt(d) * l1)
        assert separated > 0 and projected > 0

    @pytest.mark.parametrize("gamma,y1,answer_inside,plain", [
        (0.0, 1.0, False, True),  # inside, unprojected, answered inside
        (0.0, 16.0 * np.sqrt(2.0), True, False),  # projected, answered inside
        (0.0, 9.6, False, False),  # W_next = 1.2 e1 e1': unprojected, separated
        (1.5, 1.0, False, False),  # the round's B was a separated W / gamma
    ])
    def test_plain_round(self, monkeypatch, gamma, y1, answer_inside, plain):
        # plain: B_next - B is exactly the round's step rho (r s' + s r'),
        # which takes B = W, no projection and B_next = W_next; d = 2,
        # L1 = 1, rho = 1/16 and the pair (y1 e1, e1) from W = B = 0
        d, l1, rho = 2, 1.0, 1.0 / 16.0
        if answer_inside:
            monkeypatch.setattr(hessian_learner, "sep", lambda w_op, l1, q, rng: SepResult(
                1.0, None, 0.0, SepCase.INSIDE_DOUBLED, 1))
        case = SepCase.INSIDE_DOUBLED if gamma <= 1.0 else SepCase.SEPARATED
        zero = SymOperator(np.zeros((d, d), order="F"), Counter(), fro=0.0)
        state = state_at(zero, sep_res=SepResult(gamma, None, 0.0, case, 0),
                         rho=rho, l1=l1)
        b_before = state.b_op.dense()  # the round writes W, and so B, in place
        pair_step(state, y1 * e(0, d), e(0, d), RngStream(3))
        assert state.plain is plain
        if plain:
            np.testing.assert_array_equal(state.b_op.dense() - b_before,
                                          2.0 * rho * y1 * np.outer(e(0, d), e(0, d)))

    def test_frobenius_feasibility_along_run(self, np_rng):
        d, l1 = 5, 1.3
        state = LearnerState.fresh(d, l1, default_rho(1.0), 0.02)
        stream = RngStream(7)
        for _ in range(80):
            s = np_rng.standard_normal(d)
            s /= max(np.linalg.norm(s), 1e-12)
            pair_step(state, np_rng.standard_normal(d), s, stream)
            assert np.linalg.norm(state.w_op.dense()) <= np.sqrt(d) * l1 + 1e-9
            # played action stays inside the doubled operator-norm ball
            assert np.linalg.norm(state.b_op.dense(), ord=2) <= 2 * l1 + 1e-9

    def test_surrogate_dominates_true_regret(self, np_rng):
        # comparator inequality behind the dynamic-regret ledger
        d, l1 = 4, 1.0
        stream = RngStream(11)
        for t in range(25):
            w = random_symmetric(np_rng, d, scale=2.0)
            sep_res = sep(SymOperator(w, Counter()), l1, 0.01, stream)
            if sep_res.case is SepCase.INSIDE_DOUBLED:
                b = w
            else:
                b = w / sep_res.gamma
            y, s = np_rng.standard_normal(d), np_rng.standard_normal(d)
            s /= max(np.linalg.norm(s), 1e-12)
            r = y - b @ s
            grad = -np.outer(r, s) - np.outer(s, r)
            if sep_res.case is SepCase.SEPARATED:
                tilt = max(0.0, -float(np.vdot(grad, b)))
                s_mat = sep_res.sign * np.outer(sep_res.u, sep_res.u) / l1
                g_tilde = grad + tilt * s_mat
            else:
                g_tilde = grad
            # any comparator inside the operator-norm ball
            h = random_symmetric(np_rng, d)
            h *= l1 / max(np.linalg.norm(h, ord=2), 1e-12) * np_rng.uniform(0, 1)
            lhs = float(np.vdot(grad, b - h))
            rhs = float(np.vdot(g_tilde, w - h))
            assert lhs <= rhs + 1e-8


class TestClosedFormNorm:
    """W's stored norm, carried in closed form between exact passes, against
    an exact pass over W's storage after every round."""

    @given(dim=st.integers(2, 40), l1=st.sampled_from([0.05, 1.0, 1e3]),
           kinds=st.lists(st.sampled_from(["random", "rank_one", "cancel", "tiny", "zero"]),
                          min_size=1, max_size=48),
           seed=st.integers(0, 2**32 - 1))
    @settings(max_examples=80, deadline=None)
    def test_bound_after_every_round(self, dim, l1, kinds, seed):
        # l1 = 0.05 projects and separates most rounds, 1e3 none; "cancel"
        # plays r = -W s / (2 rho |s|^2) on the last s, which takes W's
        # mass along s out (all of it after a "rank_one" round, r = s);
        # "tiny" pairs have squares that underflow, alone or as a product
        rng = np.random.default_rng(seed)
        state = LearnerState.fresh(dim, l1, default_rho(1.0), 0.01)
        stream = RngStream(seed % 1000)
        last = rng.standard_normal(dim) / math.sqrt(dim)  # the last s of normal size
        for kind in kinds:
            if kind == "cancel":
                s = last
                r = -(state.w_op.dense() @ s) / (2.0 * state.rho * (s @ s))
            else:
                s = rng.standard_normal(dim) / math.sqrt(dim)
                r = s.copy() if kind == "rank_one" else rng.standard_normal(dim) / math.sqrt(dim)
                if kind == "tiny":
                    r, s = r * 10.0 ** -rng.integers(80, 180), s * 10.0 ** -rng.integers(80, 180)
                elif kind == "zero":
                    s = np.zeros(dim)
                else:
                    last = s
            learner_step(state, r, s, stream)
            exact = upper_frobenius(state.w_op.upper)
            assert exact <= state.w_op.fro <= (1.0 + FRO_BOUND_RTOL) * exact

    def test_lowdim_run_passes_over_w_rarely(self, monkeypatch):
        # the benchmark's lowdim run (coupled_trig d = 16, budget 480): an
        # exact pass at most every FRO_SYNC_ROUNDS rounds, plus one on each
        # round whose closed-form bound passed L1
        spec = catalog("coupled_trig", 16)
        params = compute_hyperparams(spec, 480)
        seen = {"passes": 0, "rounds": 0, "over_l1": 0}
        real_pass = linops.upper_frobenius
        real_closed_form = linops.closed_form_sq
        real_step = driver.learner_step

        def counted_pass(upper):
            seen["passes"] += 1
            return real_pass(upper)

        def watched_closed_form(*args):
            sq, err = real_closed_form(*args)
            seen["over_l1"] += math.sqrt(sq + err) > spec.l1
            return sq, err

        def counted_step(state, *args):
            real_step(state, *args)
            seen["rounds"] += 1
            assert state.sep.case is SepCase.INSIDE_DOUBLED  # no tilted round

        monkeypatch.setattr(linops, "upper_frobenius", counted_pass)
        monkeypatch.setattr(linops, "closed_form_sq", watched_closed_form)
        monkeypatch.setattr(driver, "learner_step", counted_step)
        driver.run(spec, params, RngStream(0), audit_level="off")
        assert seen["rounds"] == params.m_total - 1
        assert 0 < seen["passes"] <= (math.ceil(seen["rounds"] / FRO_SYNC_ROUNDS)
                                      + seen["over_l1"])


class TestRawKernelReplay:
    """``learner_step`` against the raw BLAS sequence of a round, replayed
    on a triangle of the test's own: ``dsymv`` and ``ddot`` for a separated
    round's tilt, ``dsyr2``, the tilt's ``dsyr``, the exact pass and the
    Frobenius rescale.  The replay takes the exact pass every round and
    reuses the separation result the learner kept, so W's triangle must keep
    its bits every round, and the stored norm after each exact pass."""

    def test_chains_keep_their_bits(self, np_rng):
        # l1 = 0.05 separates, tilts and projects most rounds; at l1 = 1.3
        # most bounds stay under L1 and are carried in closed form
        d, seen = 6, {"tilted": 0, "projected": 0, "carried": 0}
        for l1 in (0.05, 1.3):
            state = LearnerState.fresh(d, l1, default_rho(1.0), 0.01)
            rho, radius = state.rho, math.sqrt(d) * l1
            upper = np.zeros((d, d), order="F")
            stream = RngStream(5)
            for _ in range(120):
                s = np_rng.standard_normal(d)
                s /= np.linalg.norm(s)
                r = np_rng.standard_normal(d) - state.b_op.dense() @ s
                played, tilt = state.sep, 0.0
                if played.case is SepCase.SEPARATED:
                    tilt = max(0.0, 2.0 * ddot(r, dsymv(1.0 / played.gamma, upper, s)))
                upper = dsyr2(rho, r, s, a=upper, overwrite_a=1)
                if tilt > 0.0:
                    upper = dsyr(-rho * tilt * played.sign / l1, played.u, a=upper,
                                 overwrite_a=1)
                fro = upper_frobenius(upper)
                if fro > radius:
                    upper *= radius / fro
                    fro = upper_frobenius(upper)
                    seen["projected"] += 1
                learner_step(state, r, s, stream)
                assert state.w_op.upper.tobytes() == upper.tobytes()
                assert state.w_op.fro_rounds > 0 or state.w_op.fro == fro
                seen["tilted"] += tilt > 0.0
                seen["carried"] += state.w_op.fro_rounds > 0
        assert all(seen.values()), seen


class TestRoundAllocation:
    @pytest.mark.parametrize("case", [SepCase.INSIDE_DOUBLED, SepCase.SEPARATED])
    def test_round_allocates_one_matrix(self, np_rng, case):
        # one round at d = 512 whose W_next the Frobenius certificate settles:
        # its one matrix is W's triangle, which it writes in place and does
        # not allocate.  A copy of W, a dense outer product, a transposed sum
        # or a separate triangle for B would each add 2 MB.  A separated
        # round's state is set up by hand, as the learner plays it, with rho
        # small enough that its tilt and step keep |W_next|_F under L1
        d, l1, rho = 512, 1.0, 1e-3
        upper = np.zeros((d, d), order="F")
        upper[0, 0] = 0.5
        w_op = SymOperator(upper, fro=0.5)
        if case is SepCase.SEPARATED:  # B = W / 2
            played = SepResult(2.0, np.eye(d)[0], 1.0, case, 1)
        else:
            played = SepResult(0.5, None, 0.0, case, 0)
        state = state_at(w_op, played, rho=rho, l1=l1)
        s = np_rng.standard_normal(d) / np.sqrt(d)
        r = s + 0.1 * np_rng.standard_normal(d) / np.sqrt(d)
        if case is SepCase.SEPARATED:  # the tilt's dsyr will run
            assert float(r @ state.b_op.dense() @ s) > 0.0
        # d-vectors and small objects, measured about 10 KB
        slack = 64 * 1024
        tracemalloc.start()
        try:
            learner_step(state, r, s, RngStream(0))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert state.sep.certified and state.b_op is state.w_op
        assert state.w_op is w_op and w_op.upper is upper
        assert peak <= slack


def _project_frobenius(mat, radius):
    scale = radius / max(radius, float(np.linalg.norm(mat)))
    return scale * mat


class DenseReference:
    """The learner round written plainly over dense matrices: the gradient
    from two outer products, the tilt from a dense S, a projection that
    always scales, and symmetrizing, checked operator builds.  It keeps its
    own chain of states, started at the zero matrix like
    ``LearnerState.fresh``."""

    def __init__(self, dim, l1, rho, q_per_call):
        self.l1, self.rho, self.q_per_call = l1, rho, q_per_call
        self.w = np.zeros((dim, dim))
        self.b_op = SymOperator(self.w)
        self.gamma = 0.0
        self.s_mat = None

    def round(self, r, s, rng):
        d = self.w.shape[0]
        grad = -np.outer(r, s) - np.outer(s, r)
        if self.gamma > 1.0:
            tilt = max(0.0, -float(np.vdot(grad, self.b_op.dense())))
            grad = grad + tilt * self.s_mat
        self.w = _project_frobenius(self.w - self.rho * grad, np.sqrt(d) * self.l1)
        w_op = SymOperator(self.w)
        res = sep(w_op, self.l1, self.q_per_call, rng)
        self.b_op = w_op if res.case is SepCase.INSIDE_DOUBLED else SymOperator(self.w / res.gamma)
        # the separating hyperplane S = sign * u u' / L1, dense
        self.gamma, self.s_mat = res.gamma, (res.sign * np.outer(res.u, res.u) / self.l1
                                             if res.case is SepCase.SEPARATED else None)


# the learner and the reference apply the same rounds with different
# rounding (BLAS rank-two updates on a triangle against dense outer
# products), and each chain keeps its own.  Over the runs below the gap
# measured at most 1e-16 of |W|_F, and 8e-16 of gamma
REF_RTOL = 1e-13


def assert_matches(state, ref):
    """The learner's state equals the reference's within REF_RTOL, and its
    operators hold the layout and norms the trusted build takes on the
    learner's word."""
    scale = max(np.linalg.norm(ref.w), 1.0)
    assert np.linalg.norm(state.w_op.dense() - ref.w) <= REF_RTOL * scale
    assert np.linalg.norm(state.b_op.dense() - ref.b_op.dense()) <= REF_RTOL * scale
    assert abs(state.b_op.frobenius_norm() - ref.b_op.frobenius_norm()) <= REF_RTOL * scale
    assert triangle_ok(state.w_op) and triangle_ok(state.b_op)
    assert state.sep.gamma == pytest.approx(ref.gamma, rel=REF_RTOL, abs=REF_RTOL)


@pytest.fixture
def trusted_builds(monkeypatch):
    """Recheck every operator the learner hands to the separation oracle,
    whether or not it goes on to be played."""
    built = []

    def checked_sep(w_op, *args):
        assert triangle_ok(w_op)
        built.append(w_op)
        return sep(w_op, *args)

    monkeypatch.setattr(hessian_learner, "sep", checked_sep)
    return built


class TestDenseReference:
    """``learner_step`` against the plainly written dense round."""

    def test_driver_rounds_from_a_perturbed_start(self, monkeypatch, trusted_builds):
        spec = catalog("coupled_trig", 16)
        spec.x0 = spec.x0 + 0.3 * np.random.default_rng(1).standard_normal(16)
        params = compute_hyperparams(spec, 240)
        real_step = driver.learner_step
        refs, rounds = [], []

        def checked_step(state, r, s, rng):
            if not refs:
                refs.append(DenseReference(state.w_op.dim, state.l1, state.rho,
                                           state.q_per_call))
            ref_rng = copy.deepcopy(rng)
            rounds.append(state.sep.case)
            real_step(state, r, s, rng)
            refs[0].round(r, s, ref_rng)
            assert ref_rng.state() == rng.state()
            assert_matches(state, refs[0])

        monkeypatch.setattr(driver, "learner_step", checked_step)
        report = driver.run(spec, params, RngStream(3), audit_level="full")
        assert report.audits["all_ok"]
        assert len(rounds) >= 100 and len(trusted_builds) == len(rounds)
        # the pairs leave the diagonal: W is not a multiple of 11'
        assert np.ptp(np.diag(refs[0].w)) > 0.0

    def test_separated_rounds_with_a_small_ball(self, np_rng, trusted_builds):
        d, l1, q_per_call = 6, 0.05, 0.01
        state = LearnerState.fresh(d, l1, default_rho(1.0), q_per_call)
        ref = DenseReference(d, l1, state.rho, q_per_call)
        stream, ref_stream = RngStream(5), RngStream(5)
        separated = 0
        for _ in range(120):
            s = np_rng.standard_normal(d)
            s /= np.linalg.norm(s)
            r = np_rng.standard_normal(d) - state.b_op.dense() @ s
            separated += state.sep.case is SepCase.SEPARATED
            learner_step(state, r, s, stream)
            ref.round(r, s, ref_stream)
            assert_matches(state, ref)
        assert separated >= 60 and len(trusted_builds) == 120
