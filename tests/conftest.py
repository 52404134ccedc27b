import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from oqn import driver

TESTS = Path(__file__).resolve().parent


@pytest.fixture
def np_rng():
    return np.random.default_rng(1234)


@pytest.fixture(scope="session")
def criterion_runs():
    """The shared audited runs behind acceptance criteria 4-7:
    cosine_mixture, d in {4, 10}, budgets {120, 600}, three seeds each.
    Each run comes with its oracle calls, seen by a spy on ``driver.step``:
    per trust-region solve the subproblem's ``b_bound`` and the solution's
    ``lambda_hat`` and matvecs, and the matvecs of each separation call."""
    from oqn import catalog, compute_hyperparams, run
    from oqn.rng import RngStream

    real_step = driver.step

    def spying_step(state, *args, **kwargs):
        rounds = state.totals["tr"]["sep_calls"]
        problem, sol = real_step(state, *args, **kwargs)
        calls["tr_solve"].append((problem.b_bound, sol.lambda_hat, sol.matvecs_used))
        if state.totals["tr"]["sep_calls"] > rounds:
            calls["sep"].append(state.b_state.sep.matvecs_used)
        return problem, sol

    runs = []
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(driver, "step", spying_step)
        for dim in (4, 10):
            spec = catalog("cosine_mixture", dim)
            for budget in (120, 600):
                params = compute_hyperparams(spec, budget)
                for seed in (0, 1, 2):
                    calls = {"tr_solve": [], "sep": []}  # read by spying_step
                    report = run(spec, params, RngStream(seed), audit_level="full")
                    runs.append((spec, params, seed, report, calls))
    return runs


def spy_steps(monkeypatch):
    """Spy on ``driver.step`` for an "oqn" run: the returned list collects,
    per step, the subproblem and solution the step returns and, when the
    step ran a learner round, that round's separation result and plain
    flag, read off the learner record the round updated (else None)."""
    real_step = driver.step
    steps = []

    def spying_step(state, *args, **kwargs):
        rounds = state.totals["tr"]["sep_calls"]
        problem, sol = real_step(state, *args, **kwargs)
        ran = state.totals["tr"]["sep_calls"] > rounds
        steps.append((problem, sol, (state.b_state.sep, state.b_state.plain) if ran else None))
        return problem, sol

    monkeypatch.setattr(driver, "step", spying_step)
    return steps


def spy_conversion(monkeypatch):
    """Spy on ``driver.step``: the returned list collects, per step, the
    iterate x_n, the displacement delta_n it played and the next iterate."""
    real_step = driver.step
    steps = []

    def spying_step(state, *args, **kwargs):
        x, delta = state.x, state.delta_vec
        solved = real_step(state, *args, **kwargs)
        steps.append((x, delta, state.x))
        return solved

    monkeypatch.setattr(driver, "step", spying_step)
    return steps


def stdout_per_blas_thread_count(script):
    """The stdout of the Python source ``script`` under one and under two
    OpenBLAS threads.  OpenBLAS reads its thread count when it loads, so
    each count gets a fresh interpreter, with the package's source and the
    tests on its path."""
    path = os.pathsep.join([str(TESTS.parent / "src"), str(TESTS),
                            *filter(None, [os.environ.get("PYTHONPATH")])])
    env = {key: value for key, value in os.environ.items()
           if key not in ("OMP_NUM_THREADS", "MKL_NUM_THREADS")}
    return [subprocess.run([sys.executable, "-c", script], capture_output=True, text=True,
                           check=True, env={**env, "PYTHONPATH": path,
                                            "OPENBLAS_NUM_THREADS": threads}).stdout
            for threads in ("1", "2")]
