"""Each demo, run as a script, prints its pinned output byte for byte.

`demo_outputs/<demo>.txt` holds the stdout of `demos/<demo>.py`; a change
that moves a printed value, or the way one is printed, fails here.
"""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
DEMOS = sorted((ROOT / "demos").glob("*.py"))


def test_every_demo_has_a_pinned_output():
    pinned = sorted(p.stem for p in (ROOT / "tests" / "demo_outputs").glob("*.txt"))
    assert pinned == [demo.stem for demo in DEMOS]


@pytest.mark.parametrize("demo", DEMOS, ids=lambda demo: demo.stem)
def test_demo_prints_its_pinned_output(demo):
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    proc = subprocess.run([sys.executable, str(demo)], capture_output=True, env=env,
                          cwd=ROOT, timeout=120)
    assert proc.returncode == 0, proc.stderr.decode()
    assert proc.stdout == (ROOT / "tests" / "demo_outputs" / f"{demo.stem}.txt").read_bytes()
