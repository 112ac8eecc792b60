"""Every narrative demo runs to completion, with warnings as errors as
pytest's ``filterwarnings = error`` treats the library's own calls."""

import glob
import os
import subprocess
import sys

import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
DEMOS = sorted(glob.glob(os.path.join(ROOT, "demos", "*.py")))
# Lines a demo must print, as many times as given.
PINS = {"03_mu_towers_and_completion.py": ("pi0 factors [], proved True, checked to level 10 True",
                                           4)}


def test_demos_are_found():
    assert DEMOS


@pytest.mark.parametrize("path", DEMOS, ids=os.path.basename)
def test_demo_runs(path):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [os.path.join(ROOT, "src")] + [p for p in [env.get("PYTHONPATH")] if p])
    proc = subprocess.run([sys.executable, "-W", "error", path], capture_output=True, text=True,
                          env=env, timeout=120)
    assert proc.returncode == 0, proc.stderr
    text, count = PINS.get(os.path.basename(path), ("", 0))
    assert proc.stdout.count(text) == count or not text, proc.stdout
