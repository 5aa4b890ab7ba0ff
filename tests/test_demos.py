import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).parent.parent
DEMOS = sorted((ROOT / "demos").glob("*.py"))

# a line each of these demos must print, read off the library's results
PRINTS = {
    # the flat cover's values 7/8 and 1/8 need 1 and 3 bits
    "staged_covers.py": "ceil(-log2 value): {'0': 1, '11': 3}\n",
}


def test_demos_are_found():
    assert DEMOS
    assert set(PRINTS) <= {demo.name for demo in DEMOS}


@pytest.mark.parametrize("demo", DEMOS, ids=lambda path: path.name)
def test_demo_runs_cleanly(demo):
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    done = subprocess.run(
        [sys.executable, str(demo)], env=env, capture_output=True, text=True, timeout=120
    )
    assert done.returncode == 0, done.stderr
    assert "Traceback" not in done.stderr
    assert PRINTS.get(demo.name, "") in done.stdout
