"""Golden outputs: the sha256 of stdout and of stderr of ``oqn bench`` on
the shipped grids, run in process through ``cli.main``.

``tests/golden.json`` holds the hashes with the NumPy and SciPy versions
they were taken with; on another build the test skips, because a different
LAPACK or ufunc loop may move a last digit.  Regenerate the file with

    PYTHONPATH=src python tests/test_golden.py
"""

import contextlib
import hashlib
import io
import json
from pathlib import Path

import numpy as np
import pytest
import scipy

from oqn.cli import main as cli_main

ROOT = Path(__file__).resolve().parent.parent
GOLDEN = ROOT / "tests" / "golden.json"
GRIDS = ("bench.cfg", "compare.cfg")


def builds() -> dict:
    return {"numpy": np.__version__, "scipy": scipy.__version__}


def bench_hashes(grid: str) -> dict:
    """The sha256 of what ``oqn bench experiments/<grid>`` writes to stdout
    and to stderr."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        assert cli_main(["bench", str(ROOT / "experiments" / grid)]) == 0
    return {stream: hashlib.sha256(text.getvalue().encode()).hexdigest()
            for stream, text in (("stdout", out), ("stderr", err))}


def manifest() -> dict:
    return {"builds": builds(), "bench": {grid: bench_hashes(grid) for grid in GRIDS}}


@pytest.mark.parametrize("grid", GRIDS)
def test_bench_keeps_its_bytes(grid):
    golden = json.loads(GOLDEN.read_text())
    if golden["builds"] != builds():
        pytest.skip(f"golden hashes were taken on {golden['builds']}, this is {builds()}")
    assert bench_hashes(grid) == golden["bench"][grid]


if __name__ == "__main__":
    GOLDEN.write_text(json.dumps(manifest(), indent=2, sort_keys=True) + "\n")
