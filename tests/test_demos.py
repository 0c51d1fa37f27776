"""The demos run end to end.  Each is a script that asserts its own claims,
so a zero exit status means those claims still hold."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent


# search_space.py is left out: its two minimal_search_space calls take about
# 13-15 s between them (two runs on a 2-core Xeon).
@pytest.mark.parametrize(
    "name", ["engine_agreement", "exact_inference", "importance_sampling"]
)
def test_demo_exits_cleanly(name):
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    result = subprocess.run(
        [sys.executable, str(ROOT / "demos" / f"{name}.py")],
        env=env,
        capture_output=True,
        text=True,
        timeout=300,
    )
    assert result.returncode == 0, result.stderr
