import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.linalg import eigh_tridiagonal

from oqn import eig
from oqn.eig import (
    MinEvecCase,
    SepCase,
    lanczos_extend,
    lanczos_factorize,
    min_evec,
    refined_vector,
    sep,
    tridiagonal_eigh,
)
from oqn.errors import InvalidArgument
from oqn.linops import Counter, SymOperator, dense_extreme_eig
from oqn.rng import RngStream
from oqn.verify import LANCZOS_ORTH_TOL, LANCZOS_RECURRENCE_RTOL, random_symmetric


def unit(v):
    return v / np.linalg.norm(v)


class TestLanczos:
    def test_identity_breaks_down_immediately(self):
        op = SymOperator(np.eye(4), Counter())
        fact = lanczos_factorize(op, unit(np.array([1.0, 2.0, 0.5, -1.0])), 4)
        assert fact.breakdown_at == 1
        assert fact.alphas[0] == pytest.approx(1.0)
        assert op.counter.count == 1

    def test_tridiagonal_similarity_recovers_spectrum(self):
        op = SymOperator(np.diag([1.0, 2.0, 3.0]), Counter())
        fact = lanczos_factorize(op, unit(np.ones(3)), 3)
        evals, _ = eigh_tridiagonal(*fact.tridiagonal())
        np.testing.assert_allclose(evals, [1.0, 2.0, 3.0], atol=1e-10)
        assert op.counter.count == 3

    def test_eigenvector_start_breaks_down(self):
        a = np.diag([5.0, -1.0, 2.0])
        op = SymOperator(a, Counter())
        fact = lanczos_factorize(op, np.array([0.0, 1.0, 0.0]), 3)
        assert fact.breakdown_at == 1
        assert fact.alphas[0] == pytest.approx(-1.0)

    def test_non_unit_start_rejected(self):
        op = SymOperator(np.eye(3))
        with pytest.raises(InvalidArgument, match="need a unit start"):
            lanczos_factorize(op, np.array([1.0, 1.0, 0.0]), 2)

    def test_orthonormality_and_recurrence(self, np_rng):
        d = 30
        # three distinct eigenvalues span a Krylov space of dimension 3, so
        # the second case breaks down after step 3 and writes no v_4
        for a, breakdown_at in ((random_symmetric(np_rng, d), None),
                                (np.diag(np.resize([-1.0, 0.5, 2.0], d)), 3)):
            op = SymOperator(a, Counter())
            fact = lanczos_factorize(op, unit(np_rng.standard_normal(d)), 12)
            assert fact.breakdown_at == breakdown_at
            k = breakdown_at or 12
            assert fact.size == op.counter.count == k and fact.basis_matrix().shape == (d, k)
            # V plus the trailing row v_{k+1}, written only when no breakdown
            basis = (fact.basis_matrix() if breakdown_at
                     else np.column_stack([fact.basis_matrix(), fact.basis[k]]))
            gram = basis.T @ basis
            assert np.max(np.abs(gram - np.eye(gram.shape[0]))) <= 1e-8
            # three-term recurrence:
            # A v_j = beta_j v_{j-1} + alpha_j v_j + beta_{j+1} v_{j+1};
            # at a breakdown the last beta is below the breakdown tolerance
            scale = op.frobenius_norm()
            for j in range(k):
                lhs = a @ basis[:, j]
                rhs = fact.alphas[j] * basis[:, j]
                if j > 0:
                    rhs = rhs + fact.betas[j - 1] * basis[:, j - 1]
                if j + 1 < basis.shape[1]:
                    rhs = rhs + fact.betas[j] * basis[:, j + 1]
                assert np.linalg.norm(lhs - rhs) <= 1e-8 * scale

    @given(d=st.integers(2, 40), rank_frac=st.floats(0.0, 1.0), seed=st.integers(0, 2**32 - 1),
           stops=st.lists(st.integers(1, 40), min_size=1, max_size=4))
    @settings(max_examples=60, deadline=None)
    def test_in_place_recurrence_after_every_extension(self, d, rank_frac, seed, stops):
        # U diag(lam) U' of rank r: its Krylov space has dimension at most
        # r + 1, so a low rank breaks down, at step r + 1 or, where rounding
        # leaves beta above the breakdown tolerance, a little later.  After
        # each extension the basis, with v_{k+1} when written, stays
        # orthonormal and the recurrence A V = V T + beta_{k+1} v_{k+1} e_k'
        # holds, to verify's tolerances
        rng = np.random.default_rng(seed)
        rank = max(1, round(rank_frac * d))
        u = np.linalg.qr(rng.standard_normal((d, rank)))[0]
        op = SymOperator((u * rng.uniform(-3.0, 3.0, rank)) @ u.T, Counter())
        a = op.dense()
        stops = sorted({min(n, d) for n in stops})
        fact = lanczos_factorize(op, unit(rng.standard_normal(d)), stops[0])
        for n in stops:
            lanczos_extend(fact, op, n)
            k = fact.size
            assert k == op.counter.count == (n if fact.breakdown_at is None
                                             else fact.breakdown_at)
            trailing = fact.breakdown_at is None
            basis = fact.basis[: k + trailing].T
            orth = np.max(np.abs(basis.T @ basis - np.eye(k + trailing)))
            diag, off = fact.tridiagonal()
            v = basis[:, :k]
            resid = a @ v - v @ (np.diag(diag) + np.diag(off, 1) + np.diag(off, -1))
            if trailing:
                resid[:, -1] -= fact.betas[-1] * basis[:, k]
            rec = np.max(np.linalg.norm(resid, axis=0)) / op.frobenius_norm()
            assert orth <= LANCZOS_ORTH_TOL and rec <= LANCZOS_RECURRENCE_RTOL

    def test_factorization_allocates_about_one_basis(self, np_rng):
        # the rows are preallocated once: no step copies the basis
        d, n = 500, 100
        op = SymOperator(random_symmetric(np_rng, d), Counter())
        v1 = unit(np_rng.standard_normal(d))
        tracemalloc.start()
        try:
            fact = lanczos_factorize(op, v1, n)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert fact.size == n and fact.basis.shape == (n + 1, d)
        assert peak <= 1.25 * 8 * d * (n + 1)

    def test_extension_grows_once_and_keeps_earlier_views(self, np_rng):
        d = 20
        op = SymOperator(random_symmetric(np_rng, d), Counter())
        v1 = unit(np_rng.standard_normal(d))
        fact = lanczos_factorize(op, v1, 5)
        first = fact.basis_matrix()
        before = first.copy()
        lanczos_extend(fact, op, 12)
        assert fact.basis.shape == (13, d) and fact.basis.flags.c_contiguous
        np.testing.assert_array_equal(first, before)
        np.testing.assert_array_equal(fact.basis_matrix(),
                                      lanczos_factorize(op, v1, 12).basis_matrix())


class TestTridiagonalEigh:
    @pytest.mark.parametrize("compute_v", [False, True])
    def test_bits_of_scipys_stevd_driver(self, np_rng, compute_v):
        """Equal bits to SciPy's wrapper over random tridiagonals at k =
        1..20, each also with one zero off-diagonal entry."""
        for k in np.repeat(np.arange(1, 21), 5):
            diag, off = np_rng.standard_normal(k), np_rng.standard_normal(k - 1)
            split = off.copy()
            split[(k - 1) // 2:][:1] = 0.0  # T splits in two; k = 1 has no entry
            for e in (off, split):
                ref = eigh_tridiagonal(diag, e, eigvals_only=not compute_v,
                                       lapack_driver="stevd")
                evals, evecs = tridiagonal_eigh(diag, e, compute_v)
                if compute_v:
                    np.testing.assert_array_equal(evals, ref[0])
                    np.testing.assert_array_equal(evecs, ref[1])
                else:
                    np.testing.assert_array_equal(evals, ref)
                    assert evecs is None

    def test_one_by_one_needs_no_lapack(self, monkeypatch):
        monkeypatch.setattr(eig, "_STEVD", None)
        diag = np.array([-3.5])
        evals, evecs = tridiagonal_eigh(diag, np.empty(0), compute_v=True)
        assert evals.tolist() == [-3.5] and evecs.tolist() == [[1.0]]
        assert not np.shares_memory(evals, diag)
        assert tridiagonal_eigh(diag, np.empty(0), compute_v=False)[1] is None

    def test_lapack_failure_is_rejected(self, monkeypatch):
        monkeypatch.setattr(eig, "_STEVD", lambda d, e, compute_v: (d, None, 3))
        with pytest.raises(InvalidArgument, match="stevd failed on the tridiagonal, info = 3"):
            tridiagonal_eigh(np.ones(3), np.ones(2), compute_v=False)

    def test_finite_entries_whose_squares_overflow_are_accepted(self):
        # the guard's sum of squares overflows at 1e200; the entrywise test
        # then accepts the input, and a NaN or an infinity at either end of
        # either diagonal is rejected
        diag, off = np.array([1e200, -2e200, 3e200, 1e200]), np.array([1e200, -1e200, 2e200])
        for compute_v in (False, True):
            ref = eigh_tridiagonal(diag, off, eigvals_only=not compute_v,
                                   lapack_driver="stevd")
            evals = tridiagonal_eigh(diag, off, compute_v)[0]
            np.testing.assert_array_equal(evals, ref[0] if compute_v else ref)
            assert np.isfinite(evals).all()
        for bad in (math.nan, math.inf, -math.inf):
            for vec in (diag, off):
                for at in (0, -1):
                    spoiled = vec.copy()
                    spoiled[at] = bad
                    args = (spoiled, off) if vec is diag else (diag, spoiled)
                    with pytest.raises(InvalidArgument, match="^tridiagonal has non-finite"):
                        tridiagonal_eigh(*args, compute_v=False)


class TestRefinedVector:
    def test_bottom_eigenvector_of_the_squared_shift_matrix(self, np_rng):
        # up to sign, numpy's dense eigh of M = (T - shift I)^2 + beta^2 e_k e_k'
        for k in range(1, 21):
            diag, off = np_rng.standard_normal(k), np_rng.standard_normal(k - 1)
            shift, beta = float(np_rng.uniform(-3.0, -1.0)), float(np_rng.uniform(0.0, 1.0))
            t_mat = np.diag(diag) + np.diag(off, 1) + np.diag(off, -1) - shift * np.eye(k)
            m_mat = t_mat @ t_mat
            m_mat[-1, -1] += beta**2
            evals, evecs = np.linalg.eigh(m_mat)
            z = refined_vector(diag, off, shift, beta)
            assert z.shape == (k,)
            err = min(np.linalg.norm(z - evecs[:, 0]), np.linalg.norm(z + evecs[:, 0]))
            gap = evals[1] - evals[0] if k > 1 else 1.0
            assert err <= 1e-13 * evals[-1] / gap

    def test_one_by_one_needs_no_lapack(self, monkeypatch):
        monkeypatch.setattr(eig, "_SYEVR", None)
        assert refined_vector(np.array([2.0]), np.empty(0), -1.0, 0.5).tolist() == [1.0]

    def test_lapack_failure_is_rejected(self, monkeypatch):
        monkeypatch.setattr(eig, "_SYEVR", lambda m, **kw: (None, None, 0, None, 2))
        with pytest.raises(InvalidArgument, match="syevr failed on the squared-shift matrix, "
                                                  "info = 2"):
            refined_vector(np.ones(3), np.ones(2), -1.0, 0.5)


class TestMinEvec:
    def test_psd_certified(self):
        op = SymOperator(np.diag([1.0, 2.0]), Counter())
        res = min_evec(op, 0.5, 0.05, b_bound=1.0, rng=RngStream(0))
        assert res.case is MinEvecCase.PSD_CERTIFIED
        assert res.lambda_hat >= 0.0
        np.testing.assert_allclose(res.v_hat, 0.0)

    def test_zero_matrix_forces_negative_case(self):
        op = SymOperator(np.zeros((5, 5)), Counter())
        res = min_evec(op, 0.1, 0.05, b_bound=0.0, rng=RngStream(1))
        assert res.case is MinEvecCase.NEGATIVE_EIG
        assert res.lambda_hat == pytest.approx(-0.05)
        resid = np.linalg.norm(-res.lambda_hat * res.v_hat)
        assert resid == pytest.approx(0.05, abs=1e-12)

    def test_indefinite_sandwich_over_trials(self):
        a = np.diag([-2.0, 3.0])
        failures = 0
        for t in range(100):
            op = SymOperator(a, Counter())
            res = min_evec(op, 0.1, 0.01, b_bound=5.0, rng=RngStream(1000 + t))
            assert res.case is MinEvecCase.NEGATIVE_EIG
            resid = np.linalg.norm(a @ res.v_hat - res.lambda_hat * res.v_hat)
            ok = (-2.1 <= res.lambda_hat <= -2.0) and resid <= 0.1
            failures += 0 if ok else 1
        assert failures == 0  # far below the q=0.01 allowance

    def test_ritz_max_is_the_top_eigenvalue_of_a_full_krylov_space(self, np_rng):
        # a tight delta runs stage 1 to n1 = d, where the top Ritz value is
        # lambda_max itself; both cases return it at no extra matvec
        for shift in (0.0, 5.0):
            d = 8
            a = random_symmetric(np_rng, d) + shift * np.eye(d)
            op = SymOperator(a, Counter())
            lam_min, lam_max, _, _ = dense_extreme_eig(op)
            res = min_evec(op, 1e-6, 0.05, b_bound=lam_max - lam_min, rng=RngStream(5))
            assert res.case is (MinEvecCase.NEGATIVE_EIG if lam_min < 0.0
                                else MinEvecCase.PSD_CERTIFIED)
            assert res.matvecs_used == op.counter.count == d
            assert res.ritz_max == pytest.approx(lam_max, abs=1e-10 * np.linalg.norm(a))

    def test_stage_one_basis_survives_stage_two(self, np_rng):
        # V1 is a view of stage 1's factorization and the Ritz pairs are its
        # T1's; stage 2 grows it into a new array and must leave them as
        # stage 1 wrote them
        d = 40
        a = random_symmetric(np_rng, d)
        lam_min, lam_max, _, _ = dense_extreme_eig(SymOperator(a, Counter()))
        spread = lam_max - lam_min
        res = min_evec(SymOperator(a, Counter()), 0.1 * spread, 0.05, spread, RngStream(11))
        assert res.case is MinEvecCase.NEGATIVE_EIG
        n1 = res.basis.shape[1]
        assert n1 < res.matvecs_used  # stage 2 ran
        fact = lanczos_factorize(SymOperator(a, Counter()), RngStream(11).unit_vector(d), n1)
        np.testing.assert_array_equal(res.basis, fact.basis_matrix())
        for got, want in zip(res.ritz_pairs,
                             tridiagonal_eigh(*fact.tridiagonal(), compute_v=True)):
            np.testing.assert_array_equal(got, want)
        assert np.shares_memory(fact.basis_matrix(), fact.basis)

    @pytest.mark.parametrize("instance", ["full_space", "rank_two"])
    def test_breakdown_skips_stage_two(self, monkeypatch, np_rng, instance):
        # a stage-1 breakdown leaves an invariant Krylov space, whose bottom
        # Ritz pair is an exact eigenpair: min_evec extends nothing and
        # refines nothing, and v_hat is A's bottom eigenvector with the
        # residual theta_0 - lambda_hat = delta / 2
        if instance == "full_space":
            d, delta = 8, 1e-6  # a tight delta runs stage 1 to n1 = d
            a = random_symmetric(np_rng, d)
        else:
            d, delta = 12, 0.05  # the Krylov space saturates after three steps
            u, v = np_rng.standard_normal(d), np_rng.standard_normal(d)
            v -= (v @ u) * u / (u @ u)
            a = -2.0 * np.outer(u, u) / (u @ u) + 0.5 * np.outer(v, v) / (v @ v)
        calls = []

        def spy(name):
            real = getattr(eig, name)

            def spied(*args):
                # lanczos_factorize's own call extends an empty factorization
                if name == "refined_vector" or args[0].size > 0:
                    calls.append(name)
                return real(*args)
            return spied

        for name in ("lanczos_extend", "refined_vector"):
            monkeypatch.setattr(eig, name, spy(name))
        op = SymOperator(a, Counter())
        lam_min, lam_max, v_min, _ = dense_extreme_eig(op)
        res = min_evec(op, delta, 0.05, b_bound=lam_max - lam_min, rng=RngStream(17))
        assert res.case is MinEvecCase.NEGATIVE_EIG and not calls
        k1 = res.basis.shape[1]
        assert res.matvecs_used == op.counter.count == k1 == (d if instance == "full_space" else 3)
        fact = lanczos_factorize(SymOperator(a, Counter()), RngStream(17).unit_vector(d), k1)
        assert fact.breakdown_at == k1
        assert min(np.linalg.norm(res.v_hat - v_min), np.linalg.norm(res.v_hat + v_min)) <= 1e-10
        resid = np.linalg.norm(a @ res.v_hat - res.lambda_hat * res.v_hat)
        assert resid <= delta
        assert resid == pytest.approx(0.5 * delta, abs=1e-10 * np.linalg.norm(a))

    def test_budget_capped_at_dim(self, np_rng):
        a = random_symmetric(np_rng, 6)
        op = SymOperator(a, Counter())
        res = min_evec(op, 1e-9, 0.05, b_bound=10.0, rng=RngStream(3))
        assert res.matvecs_used <= 6
        assert op.counter.count == res.matvecs_used

    def test_invalid_arguments(self):
        op = SymOperator(np.eye(2))
        with pytest.raises(InvalidArgument, match=r"q must be in \(0,1\)"):
            min_evec(op, 0.1, 1.5, 1.0, RngStream(0))
        with pytest.raises(InvalidArgument, match="delta must be positive"):
            min_evec(op, -0.1, 0.05, 1.0, RngStream(0))

    def test_low_rank_breakdown_keeps_certificates(self, np_rng):
        # rank-2 indefinite matrix in d=12: the Krylov space saturates after
        # three steps, the oracle truncates, and the certificate still holds
        u = np_rng.standard_normal(12)
        v = np_rng.standard_normal(12)
        v -= (v @ u) * u / (u @ u)
        a = -2.0 * np.outer(u, u) / (u @ u) + 0.5 * np.outer(v, v) / (v @ v)
        op = SymOperator(a, Counter())
        res = min_evec(op, 0.05, 0.05, b_bound=2.5, rng=RngStream(17))
        assert res.case is MinEvecCase.NEGATIVE_EIG
        assert res.matvecs_used <= 3
        assert -2.05 <= res.lambda_hat <= -2.0
        resid = np.linalg.norm(a @ res.v_hat - res.lambda_hat * res.v_hat)
        assert resid <= 0.05


def assert_certified(res, op, stream, state_before):
    """``res`` is the Frobenius certificate's answer: inside, gamma = |W|_F /
    l1 exactly, no tilt, and neither a matvec nor a draw spent."""
    assert res.case is SepCase.INSIDE_DOUBLED
    assert res.matvecs_used == 0 and op.counter.count == 0
    assert stream.state() == state_before
    assert res.gamma == op.frobenius_norm() / res.l1
    assert res.sign == 0.0
    assert not np.any(res.u)


class TestSep:
    def test_zero_matrix_inside(self):
        op = SymOperator(np.zeros((3, 3)), Counter())
        res = sep(op, 1.0, 0.05, RngStream(0))
        assert res.case is SepCase.INSIDE_DOUBLED
        assert res.gamma == pytest.approx(0.0)
        np.testing.assert_allclose(res.s_mat, 0.0)

    def test_rank_one_positive_spike(self):
        w = np.zeros((2, 2))
        w[0, 0] = 3.0
        op = SymOperator(w, Counter())
        res = sep(op, 1.0, 0.05, RngStream(5))
        assert res.case is SepCase.SEPARATED
        assert res.gamma == pytest.approx(3.0, abs=1e-9)
        # separation margin: <S, W> - l1 |S|_* >= gamma - 1
        nuclear = np.sum(np.abs(np.linalg.eigvalsh(res.s_mat)))
        lhs = np.vdot(res.s_mat, w) - 1.0 * nuclear
        assert lhs >= res.gamma - 1.0 - 1e-9
        top = res.s_mat[0, 0]
        assert top == pytest.approx(1.0, abs=1e-9)

    def test_negative_spike_uses_bottom_ritz_pair(self):
        w = np.zeros((3, 3))
        w[1, 1] = -5.0
        op = SymOperator(w, Counter())
        res = sep(op, 2.0, 0.05, RngStream(11))
        assert res.case is SepCase.SEPARATED
        assert res.gamma == pytest.approx(2.5, abs=1e-9)
        expected = np.zeros((3, 3))
        expected[1, 1] = -0.5
        np.testing.assert_allclose(res.s_mat, expected, atol=1e-9)

    def test_invalid_probability(self):
        with pytest.raises(InvalidArgument, match=r"q must be in \(0,1\)"):
            sep(SymOperator(np.eye(2)), 1.0, 0.0, RngStream(0))

    # |W|_op <= |W|_F: a Frobenius norm at most l1 settles the oracle before
    # any random draw or matvec

    def test_small_norm_is_certified_without_lanczos(self, np_rng):
        for t in range(100):
            d = int(np_rng.integers(1, 20))
            l1 = float(np_rng.uniform(0.5, 2.0))
            w = random_symmetric(np_rng, d)
            w *= float(np_rng.uniform(0.0, 1.0)) * l1 / np.linalg.norm(w)
            op = SymOperator(w, Counter())
            assert op.frobenius_norm() <= l1
            stream = RngStream(60_000 + t)
            before = stream.state()
            res = sep(op, l1, 0.05, stream)
            assert_certified(res, op, stream, before)
            assert res.u.shape == (d,)
            assert np.linalg.norm(w, ord=2) <= l1

    def test_boundary_norm_equal_to_l1_certifies(self):
        l1 = 0.7
        w = np.zeros((3, 3))
        w[0, 0] = l1
        op = SymOperator(w, Counter())
        assert op.frobenius_norm() == l1
        stream = RngStream(1)
        res = sep(op, l1, 0.05, stream)
        assert_certified(res, op, stream, (1, 0))
        assert res.gamma == 1.0

    def test_shifted_operator_certifies_from_its_closed_form(self):
        base = SymOperator(np.diag([1.0, 2.0, 3.0]), Counter())
        op = base.shifted(2.0, scale=0.5)  # diag(-1.5, -1, -0.5)
        l1 = 2.0
        assert op.frobenius_norm() == pytest.approx(math.sqrt(3.5), abs=1e-14)
        stream = RngStream(2)
        res = sep(op, l1, 0.05, stream)
        assert_certified(res, op, stream, (2, 0))

    def test_operator_norm_inside_but_frobenius_outside_runs_lanczos(self):
        l1 = 1.0
        op = SymOperator(0.9 * l1 * np.eye(2), Counter())
        assert op.frobenius_norm() > l1 >= np.linalg.norm(op.dense(), ord=2)
        stream = RngStream(3)
        res = sep(op, l1, 0.05, stream)
        assert stream.draws == 1
        assert res.matvecs_used >= 1 and op.counter.count == res.matvecs_used
        assert res.case is SepCase.INSIDE_DOUBLED
        assert res.gamma == pytest.approx(0.9, abs=1e-12)

    def test_arguments_are_checked_before_the_norm_is_read(self):
        class Unreadable:
            dim = 2

            def frobenius_norm(self):
                raise AssertionError("norm read before the argument checks")

        with pytest.raises(InvalidArgument, match=r"q must be in \(0,1\)"):
            sep(Unreadable(), 1.0, 0.0, RngStream(0))
        for l1 in (0.0, -1.0):
            with pytest.raises(InvalidArgument, match="l1 must be positive"):
                sep(Unreadable(), l1, 0.05, RngStream(0))
