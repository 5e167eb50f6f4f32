"""The repo's pytest settings turn warnings into errors; a failing
hypothesis test must still report its falsifying example."""

import os
import subprocess
import sys

PYPROJECT = os.path.join(os.path.dirname(__file__), os.pardir, "pyproject.toml")

FAILING_PROPERTY = '''
from hypothesis import given, strategies as st


@given(st.integers())
def test_fails_above_nine(x):
    assert x < 10
'''


def test_failing_property_prints_its_falsifying_example(tmp_path):
    (tmp_path / "test_property.py").write_text(FAILING_PROPERTY)
    out = subprocess.run(
        [sys.executable, "-m", "pytest", "-c", PYPROJECT, "-p", "no:cacheprovider",
         "test_property.py"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120)
    assert out.returncode == 1, out.stdout + out.stderr
    assert "INTERNALERROR" not in out.stdout + out.stderr
    assert "Falsifying example" in out.stdout
    assert "1 failed" in out.stdout
