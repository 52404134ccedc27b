"""The repository's pytest settings turn warnings into errors.  A failing
``hypothesis`` test must still fail alone under them, not abort the
session: hypothesis writes the failing example's patch through ``libcst``,
whose ``mypy_extensions`` import warns."""

import subprocess
import sys
from pathlib import Path

PYPROJECT = Path(__file__).resolve().parents[1] / "pyproject.toml"

PAIR = '''
from hypothesis import given, strategies as st


@given(st.integers())
def test_fails(x):
    assert x < 5


def test_passes():
    pass
'''


def test_failing_hypothesis_test_does_not_abort_the_session(tmp_path):
    (tmp_path / "pyproject.toml").write_text(PYPROJECT.read_text())
    (tmp_path / "tests").mkdir()
    (tmp_path / "tests" / "test_pair.py").write_text(PAIR)
    done = subprocess.run([sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=120)
    assert "INTERNALERROR" not in done.stdout + done.stderr
    assert "1 failed, 1 passed" in done.stdout, done.stdout[-2000:]
