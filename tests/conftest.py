import numpy as np
import pytest


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
    from oqn import catalog, compute_hyperparams, driver, run
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
