"""The package's error types: every rejected input raises ``InvalidArgument``
with its check's message, and no module raises outside the ``OqnError``
family except where stated below."""

import ast
import math
import re
from pathlib import Path

import numpy as np
import pytest

from oqn import driver, errors, harness
from oqn.driver import HyperParams, compute_hyperparams
from oqn.eig import lanczos_factorize, min_evec, sep, tridiagonal_eigh
from oqn.errors import InvalidArgument
from oqn.hessian_learner import default_rho
from oqn.linops import Counter, SymOperator
from oqn.problems import (ObjectiveSpec, catalog, eval_gradient, fd_check_hessian,
                          quadratic_from_matrix)
from oqn.rng import RngStream
from oqn.trsolver import TrustRegionSubproblem, tr_solve

SRC = Path(__file__).resolve().parents[1] / "src" / "oqn"

# (module file, enclosing function, class) of each raise outside the family
ALLOWED = {
    ("driver.py", "run", "AssertionError"),  # the gradient accounting broke
    ("linops.py", "dense_extreme_eig", "ArithmeticError"),  # the oracle's self-check
    ("cli.py", "_UsageExit1Parser.error", "SystemExit"),  # argparse's usage exit
}


def hyper(**changed):
    return HyperParams(**{**dict(d_radius=1.0, eta=1.0, t_len=2, k_eps=2, delta_tr=1e-3),
                          **changed})


def subproblem(**changed):
    fields = dict(radius=1.0, delta=1e-3, q=0.01, b_bound=1.0)
    return TrustRegionSubproblem(a_op=SymOperator(np.eye(2), Counter()), b=np.ones(2),
                                 **{**fields, **changed})


def spec_with(**changed):
    fields = dict(dim=2, grad=lambda x: x, l1=1.0, l2=0.0, f_lower=0.0, x0=np.ones(2))
    return ObjectiveSpec(**{**fields, **changed})


def gradient_of_shape(shape):
    spec = spec_with(grad=lambda x: np.ones(shape))
    return eval_gradient(spec, np.ones(2), Counter())


MANUAL_NAN = "params=manual\nd_radius=nan\neta=1\nt_len=2\nk_eps=2\ndelta_tr=1e-3\n"


def small_run(**kwargs):
    spec = catalog("cosine_mixture", 2)
    return driver.run(spec, compute_hyperparams(spec, 8), RngStream(0), **kwargs)


def solve_nan_b():
    """A solve on a NaN ``b``: rejected before its first matvec."""
    op = SymOperator(np.eye(2), Counter())
    try:
        tr_solve(TrustRegionSubproblem(a_op=op, b=np.array([math.nan, 1.0]), radius=1.0,
                                       delta=1e-3, q=0.01, b_bound=1.0), RngStream(0))
    finally:
        assert op.counter.count == 0


def unlogged_audit():
    spec = catalog("cosine_mixture", 2)
    report = small_run(audit_level="off")
    return driver.audit_regret(report, spec, report.params)


@pytest.mark.parametrize("call,message", [
    (lambda: fd_check_hessian(spec_with(hess_at=None), np.ones(2)),
     "fd_check_hessian needs the Hessian oracle"),
    (lambda: hyper(d_radius=0.0), "^d_radius must be positive and finite, got 0.0"),
    (lambda: hyper(eta=-1.0), "^eta must be positive and finite, got -1.0"),
    (lambda: hyper(delta_tr=0.0), "^delta_tr must be positive and finite, got 0.0"),
    (lambda: hyper(t_len=0), "^t_len must be an integer >= 1, got 0"),
    (lambda: hyper(k_eps=0), "^k_eps must be an integer >= 1, got 0"),
    (lambda: hyper(p_fail=0.0), r"p_fail must be in \(0,1\)"),
    (lambda: hyper(p_fail=1.0), r"p_fail must be in \(0,1\)"),
    (lambda: compute_hyperparams(catalog("cosine_mixture", 2), 0),
     "^m_budget must be an integer >= 1, got 0"),
    (lambda: compute_hyperparams(catalog("cosine_mixture", 2), 8, gap_bound=0.0),
     "optimality-gap estimate must be positive"),
    (lambda: small_run(audit_level="loud"),
     r"^audit_level must be one of \('off', 'episode', 'full'\), got 'loud'"),
    (lambda: small_run(method="newton"), r"^method must be one of \('oqn', 'og'\), got 'newton'"),
    (unlogged_audit, "audit_regret needs a run log"),
    (lambda: SymOperator(np.ones((2, 3))), r"expected a square matrix, got shape \(2, 3\)"),
    (lambda: lanczos_factorize(SymOperator(np.eye(3)), np.array([1.0, 0.0, 0.0]), 0),
     r"n_steps must be in \[1, dim\], got 0"),
    (lambda: lanczos_factorize(SymOperator(np.eye(3)), np.array([1.0, 0.0, 0.0]), 4),
     r"n_steps must be in \[1, dim\], got 4"),
    (lambda: spec_with(dim=0), "dim must be >= 1, got 0"),
    (lambda: spec_with(x0=np.ones(3)), r"x0 has shape \(3,\), expected \(2,\)"),
    (lambda: catalog("cosine_mixture", 0), "dim must be >= 1, got 0"),
    (lambda: spec_with(l1=0.0), "^l1 must be positive and finite, got 0.0"),
    (lambda: spec_with(l2=-1.0), "^l2 must be nonnegative and finite, got -1.0"),
    (lambda: quadratic_from_matrix(np.diag([1.0, -1.0])),
     "quadratic catalog requires a PSD matrix"),
    (lambda: quadratic_from_matrix(np.ones((2, 3))),
     re.escape("quadratic catalog requires a square matrix, got shape (2, 3)")),
    (lambda: quadratic_from_matrix(np.array([[2.0, 1.0], [0.0, 1.0]])),
     "quadratic catalog requires a symmetric matrix"),
    (lambda: quadratic_from_matrix(np.diag([1.0, math.nan])),
     "quadratic catalog requires a finite matrix"),
    (lambda: subproblem(radius=0.0), "^radius must be positive and finite, got 0.0"),
    (lambda: subproblem(delta=0.0), "^delta must be positive and finite, got 0.0"),
    (lambda: subproblem(q=0.0), r"^q must be in \(0,1\), got 0.0"),
    (lambda: subproblem(q=1.0), r"^q must be in \(0,1\), got 1.0"),
    (lambda: harness.RunConfig(method="newton"), "^method must be one of .*, got 'newton'"),
    (lambda: harness.RunConfig(audit="loud"), "^audit must be one of .*, got 'loud'"),
    (lambda: driver.GdParams(step_size=0.0, steps=1),
     "^step_size must be positive and finite, got 0.0"),
    # NaN fails no comparison, so each check also asks for a finite value
    (lambda: hyper(d_radius=math.nan), "^d_radius must be positive and finite, got nan"),
    (lambda: hyper(eta=math.inf), "^eta must be positive and finite, got inf"),
    (lambda: hyper(t_len=2.5), "^t_len must be an integer >= 1, got 2.5"),
    (lambda: harness.parse_config(MANUAL_NAN), "^d_radius must be positive and finite, got nan"),
    (lambda: default_rho(math.nan), "^radius must be positive and finite, got nan"),
    (lambda: subproblem(radius=math.nan), "^radius must be positive and finite, got nan"),
    (lambda: subproblem(b_bound=math.nan), "^b_bound must be positive and finite, got nan"),
    (lambda: subproblem(b_bound=math.inf), "^b_bound must be positive and finite, got inf"),
    (solve_nan_b, "^b must be finite"),
    (lambda: spec_with(l1=math.nan), "^l1 must be positive and finite, got nan"),
    (lambda: sep(SymOperator(np.eye(2)), math.nan, 0.01, RngStream(0)),
     "^l1 must be positive and finite, got nan"),
    (lambda: harness.gd_params(harness.RunConfig(method="gd_baseline", step_size=math.nan),
                               catalog("cosine_mixture", 2)),
     "^step_size must be positive and finite, got nan"),
    (lambda: SymOperator(np.full((2, 2), math.nan)), "matrix has non-finite entries"),
    # LAPACK ?stevd answers NaN with info 0 on such input
    (lambda: tridiagonal_eigh(np.array([1.0, math.nan]), np.ones(1)),
     "^tridiagonal has non-finite entries"),
    (lambda: tridiagonal_eigh(np.ones(2), np.array([math.inf])),
     "^tridiagonal has non-finite entries"),
    (lambda: min_evec(SymOperator(np.eye(2)), math.nan, 0.05, 1.0, RngStream(0)),
     "delta must be positive and finite, got nan"),
    (lambda: min_evec(SymOperator(np.eye(2)), 0.1, 0.05, math.nan, RngStream(0)),
     "^b_bound must be nonnegative and finite, got nan"),
    # a negative spread bound would shrink both Lanczos stages to one step
    (lambda: min_evec(SymOperator(np.diag([-1.0, 2.0, 3.0, 4.0])), 0.1, 0.05, -5.0,
                      RngStream(0)),
     "^b_bound must be nonnegative and finite, got -5.0"),
    (lambda: compute_hyperparams(catalog("cosine_mixture", 2), 8.5),
     "^m_budget must be an integer >= 1, got 8.5"),
    (lambda: compute_hyperparams(catalog("cosine_mixture", 2), 8, gap_bound=math.nan),
     "optimality-gap estimate must be positive and finite, got nan"),
    (lambda: fd_check_hessian(catalog("cosine_mixture", 2), np.ones(2), h=math.nan),
     "^finite-difference step must be positive and finite, got nan"),
    (lambda: gradient_of_shape((3,)), r"gradient oracle returned shape \(3,\), expected \(2,\)"),
    (lambda: gradient_of_shape((2, 1)),
     r"gradient oracle returned shape \(2, 1\), expected \(2,\)"),
    # a config value that does not cast names its key and the raw value
    (lambda: harness.parse_config("budget=abc\n"), "budget must be int, got 'abc'"),
    (lambda: harness.parse_config(MANUAL_NAN.replace("t_len=2", "t_len=2.5")),
     "t_len must be int, got '2.5'"),
    (lambda: harness.parse_config("mu=abc\n"), "mu must be float, got 'abc'"),
    (lambda: harness.bench("budgets=240,x\n"), "budgets must be int, got 'x'"),
    (lambda: harness.bench("seeds=0,y\n"), "seeds must be int, got 'y'"),
    (lambda: RngStream(-1), "^seed must be an integer >= 0, got -1"),
    (lambda: RngStream(2.5), "^seed must be an integer >= 0, got 2.5"),
    (lambda: harness.parse_config("seed=-5\n"), "^seed must be an integer >= 0, got -5"),
    (lambda: harness.parse_config("problem_seed=-1\n"),
     "^problem_seed must be an integer >= 0, got -1"),
    (lambda: harness.parse_config("eps_target=nan\n"),
     "eps_target must be positive and finite, got nan"),
    (lambda: harness.RunConfig(eps_target=0.0), "eps_target must be positive and finite"),
    (lambda: small_run(eps_target=math.nan), "eps_target must be positive and finite, got nan"),
    (lambda: small_run(eps_target=math.inf), "eps_target must be positive and finite, got inf"),
    # a run's budget and failure probability name their config key
    (lambda: harness.parse_config("method=gd_baseline\nbudget=-3\n"),
     "^budget must be an integer >= 1, got -3"),
    (lambda: harness.parse_config("method=gd_baseline\nbudget=0\n"),
     "^budget must be an integer >= 1, got 0"),
    (lambda: harness.parse_config("method=oqn\nbudget=-3\n"),
     "^budget must be an integer >= 1, got -3"),
    (lambda: harness.RunConfig(budget=2.5), "^budget must be an integer >= 1, got 2.5"),
    (lambda: harness.bench("budgets=240,-5\n"), "^budgets must be an integer >= 1, got -5"),
    # every seeds= entry is checked before the first cell runs
    (lambda: harness.bench("dim=2\nbudgets=8\nseeds=0,-1\n"),
     "^seeds must be an integer >= 0, got -1"),
    (lambda: harness.parse_config("method=gd_baseline\np_fail=7\n"),
     r"^p_fail must be in \(0,1\), got 7.0"),
    (lambda: harness.RunConfig(p_fail=math.nan), r"^p_fail must be in \(0,1\), got nan"),
    # each family range-checks its own knobs, under the knob's name
    (lambda: catalog("cosine_mixture", 2, mu=-5.0),
     "^mu must be nonnegative and finite, got -5.0"),
    (lambda: catalog("coupled_trig", 2, kappa=-3.0),
     "^kappa must be nonnegative and finite, got -3.0"),
    (lambda: catalog("rosenbrock_local", 2, box=-1.0),
     "^box must be positive and finite, got -1.0"),
    # 1/eta overflows, so the driver's first subproblem has an infinite bound
    (lambda: driver.run(catalog("coupled_trig", 4), hyper(d_radius=0.1, eta=1e-310),
                        RngStream(0)),
     "^b_bound must be positive and finite, got inf"),
], ids=["fd_hessian_oracle", "d_radius", "eta", "delta_tr", "t_len", "k_eps",
        "p_fail_zero", "p_fail_one", "m_budget", "gap_bound", "audit_level", "run_method",
        "audit_without_log", "operator_not_square", "lanczos_zero_steps",
        "lanczos_steps_above_dim", "spec_dim", "spec_x0_shape", "catalog_dim", "spec_l1",
        "spec_l2", "quadratic_not_psd", "quadratic_not_square",
        "quadratic_not_symmetric", "quadratic_nan", "tr_radius", "tr_delta", "tr_q_zero", "tr_q_one",
        "config_method", "config_audit", "gd_step_size", "d_radius_nan", "eta_inf",
        "t_len_fraction", "manual_config_nan", "rho_radius_nan", "tr_radius_nan",
        "tr_b_bound_nan", "tr_b_bound_inf", "tr_b_nan", "spec_l1_nan", "sep_l1_nan",
        "gd_step_size_nan", "operator_nan", "tridiagonal_nan", "tridiagonal_inf",
        "minevec_delta_nan", "minevec_b_bound_nan",
        "minevec_b_bound_negative", "m_budget_fraction",
        "gap_bound_nan", "fd_step_nan", "gradient_longer", "gradient_column",
        "config_run_key_cast", "config_manual_key_cast", "config_family_knob_cast",
        "bench_budgets_cast", "bench_seeds_cast", "rng_seed_negative", "rng_seed_fraction",
        "config_seed_negative", "config_problem_seed_negative", "config_eps_target_nan",
        "config_eps_target_zero", "run_eps_target_nan", "run_eps_target_inf",
        "config_gd_budget_negative", "config_gd_budget_zero", "config_oqn_budget_negative",
        "config_budget_fraction", "bench_budgets_negative", "bench_seeds_negative",
        "config_p_fail_above_one", "config_p_fail_nan", "family_knob_mu",
        "family_knob_kappa", "family_knob_box", "run_eta_subnormal"])
def test_rejected_argument(call, message):
    with pytest.raises(InvalidArgument, match=message):
        call()


@pytest.mark.parametrize("changed,message", [
    (dict(b=np.ones(3)), "b (3,) vs operator dim 2"),
    (dict(x_start=np.ones(3)), "x_start (3,) vs b (2,)"),
    (dict(a_start=np.ones((2, 1))), "a_start (2, 1) vs b (2,)"),
    (dict(radius=0.0), "radius must be positive and finite, got 0.0"),
    (dict(delta=math.nan), "delta must be positive and finite, got nan"),
    (dict(b_bound=math.inf), "b_bound must be positive and finite, got inf"),
    (dict(q=1.0), "q must be in (0,1), got 1.0"),
], ids=["b", "x_start", "a_start", "radius", "delta", "b_bound", "q"])
def test_driver_constructor_keeps_the_messages(changed, message):
    # the one constructor, called positionally as the driver calls it
    fields = dict(a_op=SymOperator(np.eye(2), Counter()), b=np.ones(2), radius=1.0,
                  delta=1e-3, q=0.01, b_bound=1.0, lam_min_lower=0.0, x_start=np.zeros(2),
                  a_start=np.zeros(2))
    fields.update(changed)
    with pytest.raises(InvalidArgument, match=f"^{re.escape(message)}$"):
        TrustRegionSubproblem(*fields.values())


@pytest.mark.parametrize("name,message", [
    ("b", "b None vs operator dim 2"), ("x_start", "x_start None vs b (2,)"),
    ("a_start", "a_start None vs b (2,)"), ("apply", "vector shape None vs operator dim 2"),
], ids=["b", "x_start", "a_start", "apply"])
def test_non_array_rejected_not_converted(name, message):
    # a list of the right length has no shape: the solve's entry points take
    # float arrays as they are and convert nothing
    op = SymOperator(np.eye(2), Counter())
    arrays = dict(b=np.ones(2), x_start=np.zeros(2), a_start=np.zeros(2))
    with pytest.raises(InvalidArgument, match=f"^{re.escape(message)}$"):
        if name == "apply":
            op.apply([1.0, 1.0])
        else:
            TrustRegionSubproblem(op, radius=1.0, delta=1e-3, q=0.01, b_bound=1.0,
                                  **{**arrays, name: [1.0, 1.0]})
    assert op.counter.count == 0


def test_three_error_types():
    family = {name for name, obj in vars(errors).items() if isinstance(obj, type)}
    assert family == {"OqnError", "InvalidArgument", "CertificateFailure"}
    assert issubclass(InvalidArgument, errors.OqnError)
    assert issubclass(InvalidArgument, ValueError)


def _raises(node, module, scope):
    """(module, enclosing function, raised class) of every ``raise`` of a
    class under ``node``; a bare re-raise raises no class of its own."""
    for child in ast.iter_child_nodes(node):
        if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            yield from _raises(child, module, f"{scope}.{child.name}".lstrip("."))
            continue
        if isinstance(child, ast.Raise) and child.exc is not None:
            exc = child.exc.func if isinstance(child.exc, ast.Call) else child.exc
            yield module, scope, ast.unparse(exc).rsplit(".", 1)[-1]
        yield from _raises(child, module, scope)


def test_every_raise_is_in_the_family():
    raised = {site for path in sorted(SRC.glob("*.py"))
              for site in _raises(ast.parse(path.read_text()), path.name, "")}
    family = {name for name, obj in vars(errors).items()
              if isinstance(obj, type) and issubclass(obj, errors.OqnError)}
    stray = sorted(site for site in raised if site[2] not in family and site not in ALLOWED)
    assert stray == []
    assert ALLOWED <= raised


# the wording of errors.py's range checks, which no other module may repeat
RANGE_PHRASES = ("must be positive", "must be nonnegative", "must be in (0,1)",
                 "must be an integer", "must be one of")


def test_range_checks_live_in_errors():
    """A range check outside ``errors.py`` calls its ``check_*`` family: no
    ``raise InvalidArgument`` elsewhere words a range of its own."""
    stray = []
    for path in sorted(SRC.glob("*.py")):
        if path.name == "errors.py":
            continue
        for node in ast.walk(ast.parse(path.read_text())):
            if not (isinstance(node, ast.Raise) and isinstance(node.exc, ast.Call)
                    and ast.unparse(node.exc.func).rsplit(".", 1)[-1] == "InvalidArgument"):
                continue
            text = "".join(c.value for c in ast.walk(node.exc)
                           if isinstance(c, ast.Constant) and isinstance(c.value, str))
            stray += [(path.name, node.lineno, phrase)
                      for phrase in RANGE_PHRASES if phrase in text]
    assert stray == []
