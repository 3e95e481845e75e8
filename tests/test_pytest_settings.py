"""The project's pytest settings keep a failing property test readable.

``filterwarnings`` turns every warning into an error.  The Hypothesis
plugin raises a ``DeprecationWarning`` of its own while it reports a
failing ``@given`` test; unless ``pyproject.toml`` ignores exactly that
message, the run ends in ``INTERNALERROR`` and the falsifying example
is lost.  Any other ``DeprecationWarning`` must still fail its test.
"""

import subprocess
import sys
from pathlib import Path

PYPROJECT = Path(__file__).resolve().parents[1] / "pyproject.toml"

PROBE = """
import warnings

from hypothesis import given
from hypothesis import strategies as st


@given(st.integers(0, 10))
def test_fails(x):
    assert x < 5


def test_warns():
    warnings.warn("an unrelated deprecation", DeprecationWarning)
"""


def test_failing_property_reports_its_example(tmp_path):
    probe = tmp_path / "test_probe.py"
    probe.write_text(PROBE, encoding="utf-8")
    argv = [sys.executable, "-m", "pytest", "-c", str(PYPROJECT), "--rootdir", str(tmp_path),
            "-p", "no:cacheprovider", "--hypothesis-seed=0", "-q", str(probe)]
    run = subprocess.run(argv, capture_output=True, text=True, cwd=tmp_path, timeout=120)
    out = run.stdout + run.stderr
    assert run.returncode == 1, out
    assert "2 failed" in out, out
    assert "Falsifying example: test_fails(" in out and "x=5" in out, out
    assert "DeprecationWarning: an unrelated deprecation" in out, out
    assert "INTERNALERROR" not in out, out
