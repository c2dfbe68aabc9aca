"""Each narrative demo, and README's Quick start, runs to completion as a script and prints its story."""

import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
DEMOS = sorted((ROOT / "demos").glob("*.py"))


def _run(*args: str) -> subprocess.CompletedProcess:
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    return subprocess.run([sys.executable, *args], cwd=ROOT, env=env, capture_output=True, text=True, timeout=300)


@pytest.mark.parametrize("demo", DEMOS, ids=[d.name for d in DEMOS])
def test_demo_runs(demo):
    # Warnings as errors, as in the Quick start below.
    proc = _run("-W", "error", str(demo))
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip()


def test_readme_quick_start_prints_what_its_comments_say():
    # The block runs as printed, warnings as errors, in a fresh process.
    readme = (ROOT / "README.md").read_text()
    code = re.search(r"## Quick start\n\n```python\n(.*?)```", readme, re.S).group(1)
    proc = _run("-W", "error", "-c", code)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines() == ["positive_not_cp", "indecomposable", "(0.0, 1.0)", "0.6 True", "7"]
