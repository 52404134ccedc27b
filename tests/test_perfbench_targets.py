"""The benchmark's tracer wraps oqn module attributes by name and reads the
counters its arguments carry; a refactor that drops one of those names, or
keeps the names but breaks what the tracer reads, must fail here rather than
break ``perfbench/run.py --trace 1``.  ``perfbench/tracing.py`` is only
imported, never changed."""

import importlib.util
import json
from pathlib import Path

import numpy as np

import oqn

ROOT = Path(__file__).resolve().parents[1]
TRACING = ROOT / "perfbench" / "tracing.py"


def load_tracing():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_traced_attribute_resolves():
    targets = load_tracing().TARGETS
    assert targets
    missing = [f"oqn.{module}.{attr}" for module, attr, *_ in targets
               if not hasattr(getattr(oqn, module, None), attr)]
    assert missing == []


def indefinite_subproblem(d=6):
    rng = np.random.default_rng(0)
    op = oqn.SymOperator(np.diag(np.linspace(-1.0, 2.0, d)), oqn.Counter())
    return oqn.TrustRegionSubproblem(a_op=op, b=rng.standard_normal(d), radius=1.0,
                                     delta=1e-4, q=0.01, b_bound=2.0 * op.frobenius_norm())


def test_tracer_counts_one_run_and_one_solve():
    tracing = load_tracing()
    originals = {(module, attr): getattr(getattr(oqn, module), attr)
                 for module, attr, *_ in tracing.TARGETS}

    def restored():
        return all(getattr(getattr(oqn, module), attr) is original
                   for (module, attr), original in originals.items())

    tracer = tracing.Tracer(oqn)
    spec = oqn.catalog("coupled_trig", 6)
    params = oqn.compute_hyperparams(spec, 60)
    report = tracer.op("driver.run", None, oqn.run, spec, params, oqn.RngStream(0), "full")
    assert restored()
    totals = tracer.layer_totals()
    m, k = params.m_total, params.k_eps
    assert totals["driver.step"]["calls"] == m
    assert totals["hessian_learner.learner_step"]["calls"] == m - 1
    assert totals["eig.sep"]["calls"] == m - 1
    assert totals["linops.sym_build"]["calls"] == 1
    # one call per step on the (2, d) stack of its two points, one per
    # episode close and one at init: M + K + 1 calls for 2M + K + 1 gradients
    assert totals["problems.eval_gradient"]["calls"] == m + k + 1
    assert report.totals["gradients"] == 2 * m + k + 1
    # every matvec of a run falls inside a step, read off the state's counter
    assert totals["driver.step"]["matvecs"] == report.totals["matvecs"]

    def record(tracer, sol, args):
        tracer.record_solve(sol, args[0].delta)

    sol = tracer.op("trsolver.tr_solve", record, oqn.tr_solve, indefinite_subproblem(),
                    oqn.RngStream(0))
    assert restored()
    totals = tracer.layer_totals()
    assert totals["eig.min_evec"]["calls"] >= 1
    assert totals["eig.min_evec"]["matvecs"] > 0
    assert tracer.tags["trsolver.tr_solve"]["branch." + sol.branch.value] == 1

    names = {name for name, _, _ in tracing.per_layer_metrics(tracer, 0.0, 0.0)}
    declared = json.loads((ROOT / "BENCHMARK.json").read_text())["per_layer"]
    assert {entry["name"] for entry in declared} <= names
