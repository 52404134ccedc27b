import ast
import dataclasses
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oqn.errors import InvalidArgument
from oqn.linops import Counter
from oqn.problems import (
    CATALOG_NAMES,
    ObjectiveSpec,
    catalog,
    eval_gradient,
    fd_check_gradient,
    fd_check_hessian,
    quadratic_from_matrix,
)

SRC = Path(__file__).resolve().parents[1] / "src" / "oqn"

class TestEvalGradient:
    def test_identity_quadratic(self):
        spec = quadratic_from_matrix(np.eye(2))
        counter = Counter()
        np.testing.assert_allclose(
            eval_gradient(spec, np.array([3.0, 4.0]), counter), [3.0, 4.0])
        np.testing.assert_allclose(
            eval_gradient(spec, np.zeros(2), counter), [0.0, 0.0])
        assert counter.count == 2

    def test_cosine_gradient_matches_symbolic(self):
        # oracle: symbolic differentiation of the catalog formula
        import sympy

        mu = 0.1
        xs = sympy.symbols("x")
        expr = (1 - sympy.cos(xs)) + mu * xs**2 / 2
        dsym = sympy.lambdify(xs, sympy.diff(expr, xs), "numpy")
        spec = catalog("cosine_mixture", 3, mu=mu)
        counter = Counter()
        for point in (np.zeros(3), np.array([0.3, -1.2, 2.0])):
            g = eval_gradient(spec, point, counter)
            np.testing.assert_allclose(g, dsym(point), atol=1e-12)
        np.testing.assert_allclose(
            eval_gradient(spec, np.zeros(3), counter), np.zeros(3))

    def test_counter_ticks_once_per_call(self):
        spec = catalog("cosine_mixture", 4)
        counter = Counter()
        for _ in range(5):
            eval_gradient(spec, spec.x0, counter)
        assert counter.count == 5

    def test_dimension_mismatch(self):
        spec = catalog("cosine_mixture", 4)
        with pytest.raises(InvalidArgument, match=r"x has shape \(3,\), expected \(4,\)"):
            eval_gradient(spec, np.zeros(3), Counter())

    def test_non_finite(self):
        spec = ObjectiveSpec(dim=1, grad=lambda x: np.array([np.nan]),
                             l1=1.0, l2=0.0, f_lower=0.0, x0=np.zeros(1))
        with pytest.raises(InvalidArgument, match="non-finite values"):
            eval_gradient(spec, np.zeros(1), Counter())

    def test_finite_gradient_whose_sum_of_squares_overflows(self):
        # |g|^2 is inf, so the entrywise test runs, and it finds every entry
        # finite
        g = np.array([1e200, -1e200, 1e200, -1e200])
        spec = ObjectiveSpec(dim=4, grad=lambda x: g, l1=1.0, l2=0.0, f_lower=0.0,
                             x0=np.zeros(4))
        counter = Counter()
        assert eval_gradient(spec, np.zeros(4), counter) is g
        assert counter.count == 1

    @pytest.mark.parametrize("bad", [(np.nan,), (np.inf,), (-np.inf,), (np.inf, -np.inf)])
    @pytest.mark.parametrize("at_end", [False, True])
    def test_non_finite_entry_anywhere(self, bad, at_end):
        g = np.ones(5)
        if at_end:
            g[len(g) - len(bad):] = bad
        else:
            g[:len(bad)] = bad
        spec = ObjectiveSpec(dim=5, grad=lambda x: g, l1=1.0, l2=0.0, f_lower=0.0,
                             x0=np.zeros(5))
        counter = Counter()
        with pytest.raises(InvalidArgument, match="non-finite values"):
            eval_gradient(spec, np.zeros(5), counter)
        assert counter.count == 0


class TestCatalog:
    def test_identity_quadratic_constants(self):
        spec = quadratic_from_matrix(np.eye(2))
        assert spec.l1 == pytest.approx(1.0)
        assert spec.l2 == 0.0

    def test_cosine_mixture_constants(self):
        # |cos| <= 1 and |sin| <= 1 per coordinate give 1 + mu and 1
        spec = catalog("cosine_mixture", 4, mu=0.1)
        assert spec.l1 == pytest.approx(1.1)
        assert spec.l2 == pytest.approx(1.0)

    def test_default_start_avoids_stationary_origin(self):
        spec = catalog("cosine_mixture", 5)
        assert np.linalg.norm(spec.grad(np.zeros(5))) == 0.0
        assert np.linalg.norm(spec.grad(spec.x0)) > 0.5
        np.testing.assert_allclose(spec.x0, np.full(5, np.pi / 2))

    def test_unknown_problem(self):
        with pytest.raises(InvalidArgument, match="unknown problem 'does_not_exist'"):
            catalog("does_not_exist", 3)

    def test_invalid_dim(self):
        with pytest.raises(InvalidArgument, match="rosenbrock needs dim >= 2"):
            catalog("rosenbrock_local", 1)
        with pytest.raises(InvalidArgument, match="coupled_trig needs dim >= 2"):
            catalog("coupled_trig", 1)

    def test_rosenbrock_records_box(self):
        spec = catalog("rosenbrock_local", 4, box=2.0)
        assert spec.box == 2.0

    def test_lower_bounds_hold_on_samples(self, np_rng):
        for name in CATALOG_NAMES:
            spec = catalog(name, 4, seed=7)
            lo, hi = (-spec.box, spec.box) if spec.box else (-3, 3)
            for _ in range(50):
                x = np_rng.uniform(lo, hi, size=4)
                assert spec.value(x) >= spec.f_lower - 1e-12

    def test_spec_has_no_name_field(self):
        # no module read the label, so a spec carries ten settable fields
        names = {f.name for f in dataclasses.fields(ObjectiveSpec)}
        assert "name" not in names and len(names) == 10


class TestFiniteDifferences:
    def test_gradient_quadratic_near_exact(self):
        spec = quadratic_from_matrix(np.eye(2))
        assert fd_check_gradient(spec, np.array([1.0, 1.0]), 1e-5) <= 1e-8

    def test_gradient_cosine(self, np_rng):
        spec = catalog("cosine_mixture", 5)
        for _ in range(5):
            assert fd_check_gradient(spec, np_rng.uniform(-3, 3, 5), 1e-5) <= 1e-6

    def test_zero_step_rejected(self):
        spec = catalog("cosine_mixture", 3)
        with pytest.raises(InvalidArgument, match="finite-difference step must be positive"):
            fd_check_gradient(spec, spec.x0, 0.0)
        with pytest.raises(InvalidArgument, match="finite-difference step must be positive"):
            fd_check_hessian(spec, spec.x0, 0.0)

    def test_missing_value_oracle(self):
        spec = ObjectiveSpec(dim=1, grad=lambda x: x, l1=1.0, l2=0.0,
                             f_lower=0.0, x0=np.zeros(1))
        with pytest.raises(InvalidArgument, match="fd_check_gradient needs the value oracle"):
            fd_check_gradient(spec, np.zeros(1), 1e-5)

    def test_hessian_identity_quadratic(self):
        spec = quadratic_from_matrix(np.eye(3))
        assert fd_check_hessian(spec, np.array([0.3, -2.0, 1.0]), 1e-4) <= 1e-8

    def test_hessian_cosine_at_origin_is_shifted_identity(self):
        # symbolic second derivative: cos(0) + mu on the diagonal
        mu = 0.1
        spec = catalog("cosine_mixture", 4, mu=mu)
        np.testing.assert_allclose(spec.hess_at(np.zeros(4)).dense(),
                                   np.diag(np.full(4, 1.0 + mu)), atol=1e-14)
        assert fd_check_hessian(spec, np.zeros(4), 1e-4) <= 1e-6

    def test_coupled_trig_off_diagonal_vanishes_at_right_angle(self):
        # off-diagonal entries are kappa*cos(x_i)*cos(x_j), zero at pi/2
        spec = catalog("coupled_trig", 2, kappa=0.3)
        x = np.array([np.pi / 2, np.pi / 2])
        h = spec.hess_at(x).dense()
        assert abs(h[0, 1]) <= 1e-15
        assert fd_check_hessian(spec, x, 1e-4) <= 1e-6


def loop_rosenbrock_hessian(x):
    """rosenbrock_local's dense Hessian as a loop over the chain's pairs."""
    dim = x.size
    h = np.zeros((dim, dim))
    for i in range(dim - 1):
        h[i, i] += 1200.0 * (x[i] * x[i]) - 400.0 * x[i + 1] + 2.0
        h[i + 1, i + 1] += 200.0
        h[i, i + 1] += -400.0 * x[i]
        h[i + 1, i] += -400.0 * x[i]
    return h


class TestHessianForms:
    """Each family states its Hessian once, as a structured form; the form's
    ``dense()`` keeps the bits the matrix had when built entry by entry."""

    @pytest.mark.parametrize("dim", [2, 3, 8])
    def test_rosenbrock_dense_hessian_is_the_loop_bit_for_bit(self, dim):
        # libm's pow rounds unlike x * x at about 1 entry in 1,000, so
        # thousands of points tell the square apart; a zero coordinate gives
        # the loop's 0.0
        spec = catalog("rosenbrock_local", dim)
        rng = np.random.default_rng(dim)
        points = rng.uniform(-2.0, 2.0, size=(4000, dim))
        points[::7, 0] = 0.0
        for x in [spec.x0, *points]:
            dense = spec.hess_at(x).dense()
            assert dense.tobytes() == loop_rosenbrock_hessian(x).tobytes(), x

    def test_quadratic_holds_one_constant_form(self):
        q_mat = np.asfortranarray([[2.0, 0.5], [0.5, 1.0]])
        spec = quadratic_from_matrix(q_mat)
        form = spec.hess_at(np.zeros(2))
        assert spec.hess_at(np.ones(2)) is form
        # its difference with itself is the bits of the sum over Q - Q
        assert form.fro(form) == 0.0 and np.copysign(1.0, form.fro(form)) == 1.0
        assert form.dense().flags.c_contiguous
        np.testing.assert_array_equal(form.dense(), q_mat)

    def test_quadratic_holds_its_symmetric_part(self):
        # an asymmetry within the tolerance is dropped, so grad, value and
        # the Hessian state one matrix; a symmetric Q keeps its bits
        q_mat = np.array([[2.0, 1.0 + 1e-11], [1.0, 1.0]])
        sym = 0.5 * (q_mat + q_mat.T)
        spec = quadratic_from_matrix(q_mat)
        dense = spec.hess_at(np.zeros(2)).dense()
        assert dense.tobytes() == sym.tobytes() and (dense == dense.T).all()
        x = np.array([0.3, -0.7])
        assert spec.grad(x).tobytes() == (sym @ x).tobytes()
        assert fd_check_gradient(spec, np.ones(2)) < 1e-6
        assert spec.l1 == pytest.approx(np.linalg.eigvalsh(sym)[-1], rel=1e-14)
        exact = catalog("quadratic", 5, seed=3).hess_at(np.zeros(5)).dense()
        assert quadratic_from_matrix(exact).hess_at(0).dense().tobytes() == exact.tobytes()

    def test_quadratic_hessian_is_read_only(self):
        # the one constant form is handed out itself: a write must not
        # change the Hessian that later calls see
        spec = quadratic_from_matrix(np.eye(2))
        with pytest.raises(ValueError, match="read-only"):
            spec.hess_at(np.zeros(2)).dense()[0, 0] = 7.0
        assert spec.hess_at(np.ones(2)).dense()[0, 0] == 1.0
        assert fd_check_hessian(spec, np.ones(2)) < 1e-6

    def test_hess_at_is_the_one_hessian_oracle(self):
        # no module reads a ``.hess`` attribute or passes ``hess=``, and a
        # spec takes no such field
        sites = [(path.name, node.lineno)
                 for path in sorted(SRC.glob("*.py"))
                 for node in ast.walk(ast.parse(path.read_text()))
                 if (isinstance(node, ast.Attribute) and node.attr == "hess")
                 or (isinstance(node, ast.keyword) and node.arg == "hess")]
        assert sites == []
        assert "hess" not in {f.name for f in dataclasses.fields(ObjectiveSpec)}


def sum_reference(name, kappa=0.2, mu=0.1):
    """A family's value, gradient and Hessian diagonal (None where the
    family's expression holds no sum) written with ``np.sum`` and ``.sum``,
    as the catalog reduced before it called ``np.add.reduce`` directly."""
    if name == "cosine_mixture":
        return (lambda x: float(np.sum(1.0 - np.cos(x)) + 0.5 * mu * (x @ x)),
                lambda x: np.sin(x) + mu * x, None)
    if name == "coupled_trig":
        def value(x):
            s = np.sin(x)
            return float(np.sum(1.0 - np.cos(x)) + kappa * 0.5 * (np.sum(s) ** 2 - np.sum(s**2)))

        def grad(x):
            s = np.sin(x)
            return s + kappa * np.cos(x) * (s.sum(axis=-1, keepdims=True) - s)

        def diag(x):
            s = np.sin(x)
            return np.cos(x) - kappa * s * (s.sum() - s)

        return value, grad, diag
    return (lambda x: float(np.sum(100.0 * (x[1:] - x[:-1] ** 2) ** 2 + (1.0 - x[:-1]) ** 2)),
            None, None)


class TestReductions:
    @pytest.mark.parametrize("dim", [2, 3, 16, 128, 1024])
    @pytest.mark.parametrize("name", ["cosine_mixture", "coupled_trig", "rosenbrock_local"])
    def test_add_reduce_keeps_the_sum_bits(self, name, dim):
        # value, gradient (of a point and of a (2, d) stack) and the
        # Hessian's diagonal each keep the bits of the np.sum expressions
        spec = catalog(name, dim)
        value, grad, diag = sum_reference(name)
        rng = np.random.default_rng(dim)
        for _ in range(40):
            x = rng.uniform(-3.0, 3.0, size=dim)
            stack = rng.uniform(-3.0, 3.0, size=(2, dim))
            assert spec.value(x).hex() == value(x).hex()
            if grad is not None:
                assert spec.grad(x).tobytes() == grad(x).tobytes()
                assert spec.grad(stack).tobytes() == grad(stack).tobytes()
            if diag is not None:
                assert spec.hess_at(x).diag.tobytes() == diag(x).tobytes()


class TestSampledLipschitz:
    def test_wide_instance(self):
        # verify.check_problems samples every family at d = 6; coupled_trig is
        # the one family whose L1 and L2 grow with d, so it is also run wide
        rng = np.random.default_rng(3)
        spec = catalog("coupled_trig", 40)
        for _ in range(100):
            x = rng.uniform(-3, 3, size=40)
            y = rng.uniform(-3, 3, size=40)
            dist = np.linalg.norm(x - y)
            assert np.linalg.norm(spec.grad(x) - spec.grad(y)) <= spec.l1 * dist + 1e-9
            h_x, h_y = spec.hess_at(x).dense(), spec.hess_at(y).dense()
            hess_gap = np.linalg.norm(h_x - h_y, ord=2)
            assert hess_gap <= spec.l2 * dist + 1e-9


ROW_FAMILIES = [name for name in CATALOG_NAMES if catalog(name, 2).grad_rows]


class TestGradRows:
    """``eval_gradient`` on a (k, d) stack: one oracle call when the spec
    declares ``grad_rows``, else one per row; one gradient charged per row."""

    def test_catalog_declarations(self):
        # the elementwise and row-wise families declare rows; the matrix
        # oracle does not
        assert ROW_FAMILIES == ["cosine_mixture", "coupled_trig", "rosenbrock_local"]
        assert not catalog("quadratic", 4).grad_rows
        assert not quadratic_from_matrix(np.eye(3)).grad_rows

    @pytest.mark.parametrize("grad_rows", [True, False])
    def test_stack_charges_one_gradient_per_row(self, grad_rows):
        shapes = []
        base = catalog("cosine_mixture", 4)

        def grad(x):
            shapes.append(x.shape)
            return base.grad(x)

        spec = dataclasses.replace(base, grad=grad, grad_rows=grad_rows)
        points = np.arange(12.0).reshape(3, 4)
        counter = Counter()
        g = eval_gradient(spec, points, counter)
        assert counter.count == 3
        assert shapes == ([(3, 4)] if grad_rows else [(4,)] * 3)
        assert g.tobytes() == b"".join(base.grad(row.copy()).tobytes() for row in points)

    @pytest.mark.parametrize("shape", [(5,), (2, 5), (1, 2, 4), (2, 3)])
    def test_stack_shape_mismatch(self, shape):
        spec = catalog("cosine_mixture", 4)
        with pytest.raises(InvalidArgument, match=r"x has shape .*, expected \(4,\) or \(k, 4\)"):
            eval_gradient(spec, np.zeros(shape), Counter())

    @pytest.mark.parametrize("grad_rows", [True, False])
    def test_oracle_returning_the_wrong_shape(self, grad_rows):
        spec = ObjectiveSpec(dim=3, grad=lambda x: np.zeros(x.shape[:-1] + (2,)), l1=1.0,
                             l2=0.0, f_lower=0.0, x0=np.zeros(3), grad_rows=grad_rows)
        counter = Counter()
        with pytest.raises(InvalidArgument, match=r"gradient oracle returned shape"):
            eval_gradient(spec, np.zeros((2, 3)), counter)
        assert counter.count == 0

    @pytest.mark.parametrize("grad_rows", [True, False])
    @pytest.mark.parametrize("row", [0, 1])
    def test_non_finite_row_rejects_the_stack_uncharged(self, grad_rows, row):
        def grad(x):
            g = np.ones(x.shape)
            g[..., 2] = np.where(x[..., 0] == row, np.inf, 1.0)
            return g

        spec = ObjectiveSpec(dim=4, grad=grad, l1=1.0, l2=0.0, f_lower=0.0,
                             x0=np.zeros(4), grad_rows=grad_rows)
        counter = Counter()
        with pytest.raises(InvalidArgument, match="non-finite values"):
            eval_gradient(spec, np.array([[0.0] * 4, [1.0] * 4]), counter)
        assert counter.count == 0

    @given(d=st.integers(2, 300), k=st.integers(1, 4), seed=st.integers(0, 2**32 - 1),
           name=st.sampled_from(ROW_FAMILIES))
    @settings(max_examples=80, deadline=None)
    def test_stack_keeps_single_call_bits(self, d, k, seed, name):
        spec = catalog(name, d)
        rng = np.random.default_rng(seed)
        box = spec.box or 3.0
        points = rng.uniform(-box, box, size=(k, d))
        stacked = eval_gradient(spec, points, Counter())
        assert stacked.tobytes() == b"".join(spec.grad(row.copy()).tobytes() for row in points)
