"""Smoke test: the narrative demos run against the public API."""

import os
import subprocess
import sys

import pytest

ROOT = os.path.abspath(os.path.join(os.path.dirname(__file__), os.pardir))


@pytest.mark.parametrize("demo", ["neighborhood_table.py", "walk_traces.py",
                                  "radius_sweep.py"])
def test_demo_runs(demo, tmp_path):
    env = dict(os.environ, PYTHONPATH=os.path.join(ROOT, "src"))
    out = subprocess.run([sys.executable, os.path.join(ROOT, "demos", demo)],
                         capture_output=True, text=True, cwd=tmp_path, env=env)
    assert out.returncode == 0, out.stderr
