"""The benchmark's tracer wraps oqn module attributes by name; a refactor that
drops one of them must fail here rather than break ``perfbench/run.py
--trace 1``.  ``perfbench/tracing.py`` is only imported, never changed."""

import importlib.util
from pathlib import Path

import oqn

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


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

