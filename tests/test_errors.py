"""The package's error types: every rejected input raises ``InvalidArgument``
with its check's message, and no module raises outside the ``OqnError``
family except where stated below."""

import ast
import math
from pathlib import Path

import numpy as np
import pytest

from oqn import driver, errors, harness
from oqn.driver import HyperParams, compute_hyperparams
from oqn.eig import lanczos_factorize, min_evec, sep
from oqn.errors import InvalidArgument
from oqn.hessian_learner import default_rho
from oqn.linops import Counter, SymOperator
from oqn.problems import (ObjectiveSpec, catalog, eval_gradient, fd_check_hessian,
                          quadratic_from_matrix)
from oqn.rng import RngStream
from oqn.trsolver import TrustRegionSubproblem

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


def unlogged_audit():
    spec = catalog("cosine_mixture", 2)
    report = small_run(audit_level="off")
    return driver.audit_regret(report, spec, report.params)


@pytest.mark.parametrize("call,message", [
    (lambda: fd_check_hessian(spec_with(hess=None), np.ones(2)),
     "fd_check_hessian needs the Hessian oracle"),
    (lambda: hyper(d_radius=0.0), "d_radius, eta and delta_tr must be positive"),
    (lambda: hyper(eta=-1.0), "d_radius, eta and delta_tr must be positive"),
    (lambda: hyper(delta_tr=0.0), "d_radius, eta and delta_tr must be positive"),
    (lambda: hyper(t_len=0), "t_len and k_eps must be at least 1"),
    (lambda: hyper(k_eps=0), "t_len and k_eps must be at least 1"),
    (lambda: hyper(p_fail=0.0), r"p_fail must be in \(0,1\)"),
    (lambda: hyper(p_fail=1.0), r"p_fail must be in \(0,1\)"),
    (lambda: compute_hyperparams(catalog("cosine_mixture", 2), 0),
     "m_budget must be at least 1"),
    (lambda: compute_hyperparams(catalog("cosine_mixture", 2), 8, gap_bound=0.0),
     "optimality-gap estimate must be positive"),
    (lambda: small_run(audit_level="loud"), "audit_level must be one of"),
    (lambda: small_run(method="newton"), "method must be 'oqn' or 'og', got 'newton'"),
    (unlogged_audit, "audit_regret needs a run log"),
    (lambda: SymOperator(np.ones((2, 3))), r"expected a square matrix, got shape \(2, 3\)"),
    (lambda: lanczos_factorize(SymOperator(np.eye(3)), np.array([1.0, 0.0, 0.0]), 0),
     r"n_steps must be in \[1, dim\], got 0"),
    (lambda: lanczos_factorize(SymOperator(np.eye(3)), np.array([1.0, 0.0, 0.0]), 4),
     r"n_steps must be in \[1, dim\], got 4"),
    (lambda: spec_with(dim=0), "dim must be >= 1, got 0"),
    (lambda: spec_with(x0=np.ones(3)), r"x0 has shape \(3,\), expected \(2,\)"),
    (lambda: catalog("cosine_mixture", 0), "dim must be >= 1, got 0"),
    (lambda: spec_with(l1=0.0), "l1 must be positive"),
    (lambda: spec_with(l2=-1.0), "l2 must be nonnegative"),
    (lambda: quadratic_from_matrix(np.diag([1.0, -1.0])),
     "quadratic catalog requires a PSD matrix"),
    (lambda: subproblem(radius=0.0), "radius must be positive"),
    (lambda: subproblem(delta=0.0), "delta must be positive"),
    (lambda: subproblem(q=0.0), r"q must be in \(0,1\)"),
    (lambda: subproblem(q=1.0), r"q must be in \(0,1\)"),
    (lambda: harness.RunConfig(method="newton"), "method must be one of"),
    (lambda: harness.RunConfig(audit="loud"), "audit must be one of"),
    (lambda: harness.baseline_gd(catalog("cosine_mixture", 2), 1, step_size=0.0),
     "step_size must be positive"),
    # NaN fails no comparison, so each check also asks for a finite value
    (lambda: hyper(d_radius=math.nan), "d_radius, eta and delta_tr must be positive and finite"),
    (lambda: hyper(eta=math.inf), "d_radius, eta and delta_tr must be positive and finite"),
    (lambda: hyper(t_len=2.5), "t_len and k_eps must be at least 1 and integral"),
    (lambda: harness.parse_config(MANUAL_NAN),
     "d_radius, eta and delta_tr must be positive and finite"),
    (lambda: default_rho(math.nan), "radius must be positive and finite"),
    (lambda: subproblem(radius=math.nan), "radius must be positive and finite"),
    (lambda: subproblem(b_bound=math.nan), "b_bound must be positive and finite"),
    (lambda: subproblem(b_bound=math.inf), "b_bound must be positive and finite"),
    (lambda: spec_with(l1=math.nan), "l1 must be positive and finite"),
    (lambda: sep(SymOperator(np.eye(2)), math.nan, 0.01, RngStream(0)),
     "l1 must be positive and finite"),
    (lambda: harness.gd_step_size(catalog("cosine_mixture", 2), math.nan),
     "step_size must be positive and finite"),
    (lambda: SymOperator(np.full((2, 2), math.nan)), "matrix has non-finite entries"),
    (lambda: min_evec(SymOperator(np.eye(2)), math.nan, 0.05, 1.0, RngStream(0)),
     "delta must be positive and finite, got nan"),
    (lambda: min_evec(SymOperator(np.eye(2)), 0.1, 0.05, math.nan, RngStream(0)),
     "b_bound must be finite, got nan"),
    (lambda: compute_hyperparams(catalog("cosine_mixture", 2), 8.5),
     "m_budget must be at least 1 and integral"),
    (lambda: compute_hyperparams(catalog("cosine_mixture", 2), 8, gap_bound=math.nan),
     "optimality-gap estimate must be positive and finite, got nan"),
    (lambda: fd_check_hessian(catalog("cosine_mixture", 2), np.ones(2), h=math.nan),
     "finite-difference step must be positive and finite"),
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
    (lambda: RngStream(-1), "seed must be a nonnegative integer, got -1"),
    (lambda: RngStream(2.5), "seed must be a nonnegative integer, got 2.5"),
    (lambda: harness.parse_config("seed=-5\n"), "^seed must be a nonnegative integer, got -5"),
    (lambda: harness.parse_config("problem_seed=-1\n"),
     "problem_seed must be a nonnegative integer, got -1"),
    (lambda: harness.parse_config("eps_target=nan\n"),
     "eps_target must be positive and finite, got nan"),
    (lambda: harness.RunConfig(eps_target=0.0), "eps_target must be positive and finite"),
    (lambda: small_run(eps_target=math.nan), "eps_target must be positive and finite, got nan"),
    (lambda: small_run(eps_target=math.inf), "eps_target must be positive and finite, got inf"),
], ids=["fd_hessian_oracle", "d_radius", "eta", "delta_tr", "t_len", "k_eps",
        "p_fail_zero", "p_fail_one", "m_budget", "gap_bound", "audit_level", "run_method",
        "audit_without_log", "operator_not_square", "lanczos_zero_steps",
        "lanczos_steps_above_dim", "spec_dim", "spec_x0_shape", "catalog_dim", "spec_l1",
        "spec_l2", "quadratic_not_psd", "tr_radius", "tr_delta", "tr_q_zero", "tr_q_one",
        "config_method", "config_audit", "gd_step_size", "d_radius_nan", "eta_inf",
        "t_len_fraction", "manual_config_nan", "rho_radius_nan", "tr_radius_nan",
        "tr_b_bound_nan", "tr_b_bound_inf", "spec_l1_nan", "sep_l1_nan", "gd_step_size_nan",
        "operator_nan", "minevec_delta_nan", "minevec_b_bound_nan", "m_budget_fraction",
        "gap_bound_nan", "fd_step_nan", "gradient_longer", "gradient_column",
        "config_run_key_cast", "config_manual_key_cast", "config_family_knob_cast",
        "bench_budgets_cast", "bench_seeds_cast", "rng_seed_negative", "rng_seed_fraction",
        "config_seed_negative", "config_problem_seed_negative", "config_eps_target_nan",
        "config_eps_target_zero", "run_eps_target_nan", "run_eps_target_inf"])
def test_rejected_argument(call, message):
    with pytest.raises(InvalidArgument, match=message):
        call()


def test_four_error_types():
    family = {name for name, obj in vars(errors).items() if isinstance(obj, type)}
    assert family == {"OqnError", "InvalidArgument", "CertificateFailure", "StationaryStart"}
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
