"""Each script under demos/ runs to completion in a fresh interpreter."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent


def run_demo(name: str) -> subprocess.CompletedProcess:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(ROOT / "src"), env.get("PYTHONPATH")) if p
    )
    return subprocess.run(
        [sys.executable, str(ROOT / "demos" / name)],
        capture_output=True,
        text=True,
        env=env,
        cwd=ROOT,
        timeout=600,
    )


@pytest.mark.parametrize("name", ["edge_spectra.py", "extremal_ranking.py", "wendt_table.py"])
def test_demo_runs(name):
    proc = run_demo(name)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip()


@pytest.mark.slow
def test_conjecture_sweep_demo_runs():
    proc = run_demo("conjecture_sweep.py")
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip()
