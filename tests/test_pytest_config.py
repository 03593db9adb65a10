"""The repo's pytest configuration: pyproject.toml turns every warning into an
error but one, the DeprecationWarning that hypothesis's failure report raises
when it imports libcst (mypy_extensions.TypedDict).  As an error it ended the
whole run with INTERNALERROR at the first failing property test, so no later
test ran."""

import subprocess
import sys
from pathlib import Path

PYPROJECT = Path(__file__).resolve().parents[1] / "pyproject.toml"

FAILING_FILE = '''\
import warnings

from hypothesis import given, settings, strategies as st


@settings(database=None, derandomize=True)
@given(st.integers())
def test_property_fails(x):
    assert x < 0


def test_another_deprecation_warning_is_still_an_error():
    warnings.warn("some other API is deprecated", DeprecationWarning)


def test_later_test_runs():
    pass
'''


def test_a_failing_hypothesis_test_is_reported_as_a_failure(tmp_path):
    (tmp_path / "test_failing.py").write_text(FAILING_FILE)
    proc = subprocess.run(
        [sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider",
         "-c", str(PYPROJECT), "--rootdir", str(tmp_path), str(tmp_path / "test_failing.py")],
        cwd=tmp_path, capture_output=True, text=True, timeout=300)
    out = proc.stdout + proc.stderr
    assert "INTERNALERROR" not in out
    assert proc.returncode == 1
    assert "Falsifying example: test_property_fails(" in out
    assert out.rstrip().splitlines()[-1].startswith("2 failed, 1 passed")
    assert "FAILED test_failing.py::test_another_deprecation_warning_is_still_an_error" in out
