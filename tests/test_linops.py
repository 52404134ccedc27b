import ast
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.linalg.blas import ddot, dsymv

from conftest import stdout_per_blas_thread_count
from oqn.errors import InvalidArgument
from oqn.linops import (
    DENSE_EIG_DIM_CAP,
    REDUCTION_BLOCK,
    Counter,
    SymOperator,
    dense_extreme_eig,
    sum_of_squares,
)
from oqn.verify import random_symmetric

SRC = Path(__file__).resolve().parents[1] / "src" / "oqn"
# the BLAS kernels that write or read a build's storage in place
STORAGE_KERNELS = {"dsymv", "dsyr", "dsyr2"}


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
        with pytest.raises(InvalidArgument, match=r"vector shape \(4,\) vs operator dim 3"):
            op.apply(np.zeros(4))

    def test_rejects_asymmetric(self):
        with pytest.raises(InvalidArgument, match="matrix is not symmetric"):
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

    def test_sum_of_squares_adds_fixed_blocks_in_order(self, np_rng):
        # one block is one ddot; a longer vector is its blocks' ddots added
        # left to right, whatever length the BLAS would split a ddot at
        x = np_rng.standard_normal(2 * REDUCTION_BLOCK + 100)
        head = x[:REDUCTION_BLOCK]
        assert sum_of_squares(head) == ddot(head, head)
        blocks = (x[:REDUCTION_BLOCK], x[REDUCTION_BLOCK:2 * REDUCTION_BLOCK],
                  x[2 * REDUCTION_BLOCK:])
        total = 0.0
        for block in blocks:
            total += ddot(block, block)
        assert sum_of_squares(x) == total

    @pytest.mark.parametrize("dim", [2, 64, 90])
    def test_checked_build_norm_is_numpy_norm_up_to_one_block(self, dim):
        # up to REDUCTION_BLOCK entries the build's sum of squares is one
        # ddot in np.linalg.norm's order, so it keeps that norm's bits
        m = np.random.default_rng(dim).standard_normal((dim, dim))
        assert SymOperator(m + m.T).fro == float(np.linalg.norm(m + m.T))

    def test_checked_build_norm_bits_with_one_and_two_threads(self):
        # d = 128 sums 16,384 squares, the length from which OpenBLAS
        # splits one ddot across its threads
        outs = stdout_per_blas_thread_count(
            "import numpy as np\n"
            "from oqn.linops import SymOperator\n"
            "m = np.random.default_rng(128).standard_normal((128, 128))\n"
            "print(SymOperator(m + m.T).fro.hex())\n")
        assert outs[0] and outs[0] == outs[1]

    @given(st.integers(0, 10_000), st.booleans())
    @settings(max_examples=40, deadline=None)
    def test_shifted_views_closed_form(self, seed, cancel):
        # a view of a view, as when the solver shifts the driver's scaled view;
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
        view = base.shifted(shift, scale)
        nested = view.shifted(shift2)
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
        shifted = base.shifted(0.5)
        out = shifted.apply(np.array([1.0, 0.0, 0.0]))
        np.testing.assert_allclose(out, [0.5, 0, 0])
        assert counter.count == 1

    def test_scaled_view_ticks_base_once(self, np_rng):
        counter = Counter()
        a = random_symmetric(np_rng, 4)
        view = SymOperator(a, counter).shifted(-2.0, scale=0.5)
        v = np_rng.standard_normal(4)
        np.testing.assert_allclose(view.apply(v), 0.5 * a @ v + 2.0 * v, atol=1e-14)
        np.testing.assert_allclose(view.dense(), 0.5 * a + 2.0 * np.eye(4), atol=1e-15)
        assert counter.count == 1


class TestViews:
    def test_build_keeps_its_arithmetic_and_views_compose(self, np_rng):
        counter = Counter()
        a = random_symmetric(np_rng, 6)
        op = SymOperator(a, counter)
        v = np_rng.standard_normal(6)
        # a build is (1, 0): one dsymv, the build's norm, its triangle's trace
        assert (op.scale, op.shift) == (1.0, 0.0)
        assert op.apply(v).tobytes() == dsymv(1.0, op.upper, v).tobytes()
        assert op.frobenius_norm() == float(np.linalg.norm(a))
        assert op.trace() == float(np.trace(op.upper))
        np.testing.assert_array_equal(op.dense(), a)
        # a view of a view is one view over the same triangle and counter
        s, t, s2, t2 = 0.5, -3.0, -2.0, 0.7
        view = op.shifted(t, s).shifted(t2, s2)
        assert (view.scale, view.shift) == (s2 * s, s2 * t + t2)
        assert view.upper is op.upper and view.counter is counter and view.fro == op.fro
        before = counter.count
        out = view.apply(v)
        assert counter.count == before + 1
        assert out.tobytes() == (view.scale * dsymv(1.0, op.upper, v)
                                 - view.shift * v).tobytes()


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
        with pytest.raises(InvalidArgument, match="exceeds dense-oracle cap"):
            dense_extreme_eig(SymOperator(np.eye(DENSE_EIG_DIM_CAP + 1)))

    def test_shifted_spectrum_matches(self, np_rng):
        a = random_symmetric(np_rng, 12)
        base = SymOperator(a)
        lam = 0.37
        b_min, b_max, _, _ = dense_extreme_eig(base)
        s_min, s_max, _, _ = dense_extreme_eig(base.shifted(lam))
        assert s_min == pytest.approx(b_min - lam, abs=1e-9)
        assert s_max == pytest.approx(b_max - lam, abs=1e-9)


def _storage_sites(tree, module):
    """(module, line, what) of every use of a storage kernel, imported or
    read as an attribute, and of every assignment to an ``upper`` or
    ``fro`` attribute, plain, augmented or annotated, tuples included."""
    for node in ast.walk(tree):
        names = ()
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            names = [alias.name.rsplit(".", 1)[-1] for alias in node.names]
        elif isinstance(node, ast.Attribute):
            names = [node.attr]
        for name in names:
            if name in STORAGE_KERNELS:
                yield module, node.lineno, name
        targets = (node.targets if isinstance(node, ast.Assign)
                   else [node.target] if isinstance(node, (ast.AugAssign, ast.AnnAssign))
                   else [])
        for target in targets:
            for leaf in ast.walk(target):
                if isinstance(leaf, ast.Attribute) and leaf.attr in ("upper", "fro"):
                    yield module, leaf.lineno, f".{leaf.attr} ="


def test_only_linops_touches_the_storage():
    """W's triangle, its kernels and its stored norm have one home: outside
    ``linops.py`` no module imports ``dsymv``, ``dsyr`` or ``dsyr2`` or
    assigns a ``SymOperator``'s ``upper`` or ``fro``."""
    sites = {path.name: list(_storage_sites(ast.parse(path.read_text()), path.name))
             for path in sorted(SRC.glob("*.py"))}
    assert sites["linops.py"]  # the scan sees the home module's own writes
    assert [site for name, found in sites.items() if name != "linops.py"
            for site in found] == []
