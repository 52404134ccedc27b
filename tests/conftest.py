import numpy as np
import pytest


@pytest.fixture
def np_rng():
    return np.random.default_rng(1234)


@pytest.fixture(scope="session")
def criterion_runs():
    """The shared audited runs behind acceptance criteria 4-7:
    cosine_mixture, d in {4, 10}, budgets {120, 600}, three seeds each."""
    from oqn import catalog, compute_hyperparams, run
    from oqn.rng import RngStream

    runs = []
    for dim in (4, 10):
        spec = catalog("cosine_mixture", dim)
        for budget in (120, 600):
            params = compute_hyperparams(spec, budget)
            for seed in (0, 1, 2):
                report = run(spec, params, RngStream(seed), audit_level="full")
                runs.append((spec, params, seed, report))
    return runs
