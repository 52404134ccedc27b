import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oqn.errors import DimensionMismatch, DimTooLargeForDenseOracle
from oqn.linops import (
    Counter,
    ShiftedOperator,
    SymOperator,
    dense_extreme_eig,
)

from conftest import random_symmetric


def jacobi_eigenvalues(a, sweeps=100, tol=1e-14):
    """Independent dense symmetric eigensolver: classical Jacobi rotations."""
    a = a.copy()
    n = a.shape[0]
    for _ in range(sweeps):
        off = np.sqrt(np.sum(a**2) - np.sum(np.diag(a) ** 2))
        if off < tol * max(1.0, np.linalg.norm(a)):
            break
        for p in range(n - 1):
            for q in range(p + 1, n):
                if abs(a[p, q]) < 1e-300:
                    continue
                theta = 0.5 * np.arctan2(2.0 * a[p, q], a[q, q] - a[p, p])
                c, s = np.cos(theta), np.sin(theta)
                rot = np.eye(n)
                rot[p, p] = rot[q, q] = c
                rot[p, q] = s
                rot[q, p] = -s
                a = rot.T @ a @ rot
    return np.sort(np.diag(a))


class TestMatvec:
    def test_identity(self):
        op = SymOperator(np.eye(3))
        np.testing.assert_allclose(op.apply(np.array([1.0, 2.0, 3.0])), [1, 2, 3])

    def test_diagonal(self):
        op = SymOperator(np.diag([2.0, -1.0]))
        np.testing.assert_allclose(op.apply(np.array([1.0, 1.0])), [2, -1])

    def test_matches_row_by_row_product(self, np_rng):
        a = random_symmetric(np_rng, 6)
        op = SymOperator(a)
        v = np_rng.standard_normal(6)
        expected = np.array([a[i] @ v for i in range(6)])
        np.testing.assert_allclose(op.apply(v), expected, atol=1e-14)

    def test_dimension_mismatch(self):
        op = SymOperator(np.eye(3))
        with pytest.raises(DimensionMismatch):
            op.apply(np.zeros(4))

    def test_rejects_asymmetric(self):
        with pytest.raises(DimensionMismatch):
            SymOperator(np.array([[0.0, 1.0], [0.0, 0.0]]))

    @given(st.integers(0, 10_000))
    @settings(max_examples=25, deadline=None)
    def test_symmetry_bilinear_identity(self, seed):
        rng = np.random.default_rng(seed)
        a = random_symmetric(rng, 5)
        op = SymOperator(a)
        u, v = rng.standard_normal(5), rng.standard_normal(5)
        lhs = abs(u @ op.apply(v) - v @ op.apply(u))
        assert lhs <= 1e-10 * np.linalg.norm(u) * np.linalg.norm(v) * op.frobenius_norm() + 1e-14


class TestFrobeniusNorm:
    def test_zero(self):
        assert SymOperator(np.zeros((3, 3))).frobenius_norm() == 0.0

    def test_identity_d4(self):
        assert SymOperator(np.eye(4)).frobenius_norm() == pytest.approx(2.0)

    def test_matches_entry_sum(self, np_rng):
        a = random_symmetric(np_rng, 7)
        assert SymOperator(a).frobenius_norm() == pytest.approx(
            np.sqrt(np.sum(a**2)), rel=1e-13)

    @given(st.integers(0, 10_000), st.booleans())
    @settings(max_examples=40, deadline=None)
    def test_shifted_views_closed_form(self, seed, cancel):
        # nested views, as when the solver shifts a scaled-and-shifted operator;
        # ``cancel`` makes the outer view exactly zero, the worst case of the
        # closed form, whose error is then sqrt(eps) relative to the operands
        rng = np.random.default_rng(seed)
        d = int(rng.integers(1, 9))
        scale, shift = rng.uniform(-2.0, 2.0), rng.normal()
        if cancel:
            c = rng.normal()
            base = SymOperator(c * np.eye(d))
            shift2 = scale * c - shift
        else:
            base = SymOperator(random_symmetric(rng, d, scale=rng.uniform(0.0, 3.0)))
            shift2 = rng.normal()
        view = ShiftedOperator(base, shift, scale=scale)
        nested = ShiftedOperator(view, shift2)
        view_size = abs(scale) * base.frobenius_norm() + abs(shift) * np.sqrt(d)
        for op, size in ((view, view_size),
                         (nested, view_size + abs(shift2) * np.sqrt(d))):
            dense = op.dense()
            assert abs(op.frobenius_norm() - np.linalg.norm(dense)) <= 1e-7 * size
            assert op.trace() == pytest.approx(np.trace(dense), abs=1e-12 * size)


class TestCounters:
    @given(st.integers(1, 12))
    @settings(max_examples=20, deadline=None)
    def test_counter_conservation(self, k):
        rng = np.random.default_rng(k)
        op = SymOperator(random_symmetric(rng, 4), Counter())
        acc = np.zeros(4)
        for _ in range(k):
            acc = acc + op.apply(rng.standard_normal(4))
        assert op.counter.count == k

    def test_shifted_ticks_base_once(self):
        counter = Counter()
        base = SymOperator(np.eye(3), counter)
        shifted = ShiftedOperator(base, 0.5)
        out = shifted.apply(np.array([1.0, 0.0, 0.0]))
        np.testing.assert_allclose(out, [0.5, 0, 0])
        assert counter.count == 1

    def test_scaled_view_ticks_base_once(self, np_rng):
        counter = Counter()
        a = random_symmetric(np_rng, 4)
        view = ShiftedOperator(SymOperator(a, counter), -2.0, scale=0.5)
        v = np_rng.standard_normal(4)
        np.testing.assert_allclose(view.apply(v), 0.5 * a @ v + 2.0 * v, atol=1e-14)
        np.testing.assert_allclose(view.dense(), 0.5 * a + 2.0 * np.eye(4), atol=1e-15)
        assert counter.count == 1


class TestDenseExtremeEig:
    def test_diagonal(self):
        lam_min, lam_max, v_min, v_max = dense_extreme_eig(SymOperator(np.diag([-2.0, 3.0])))
        assert lam_min == pytest.approx(-2.0)
        assert lam_max == pytest.approx(3.0)
        np.testing.assert_allclose(np.abs(v_min), [1, 0], atol=1e-12)
        np.testing.assert_allclose(np.abs(v_max), [0, 1], atol=1e-12)

    def test_degenerate_identity(self):
        lam_min, lam_max, _, _ = dense_extreme_eig(SymOperator(np.eye(5)))
        assert lam_min == pytest.approx(1.0)
        assert lam_max == pytest.approx(1.0)

    def test_against_jacobi_oracle(self, np_rng):
        a = random_symmetric(np_rng, 20)
        lam_min, lam_max, _, _ = dense_extreme_eig(SymOperator(a))
        ref = jacobi_eigenvalues(a)
        assert lam_min == pytest.approx(ref[0], abs=1e-8)
        assert lam_max == pytest.approx(ref[-1], abs=1e-8)

    def test_dim_cap(self):
        with pytest.raises(DimTooLargeForDenseOracle):
            dense_extreme_eig(SymOperator(np.eye(8)), dim_cap=4)

    def test_shifted_spectrum_matches(self, np_rng):
        a = random_symmetric(np_rng, 12)
        base = SymOperator(a)
        lam = 0.37
        b_min, b_max, _, _ = dense_extreme_eig(base)
        s_min, s_max, _, _ = dense_extreme_eig(ShiftedOperator(base, lam))
        assert s_min == pytest.approx(b_min - lam, abs=1e-9)
        assert s_max == pytest.approx(b_max - lam, abs=1e-9)
