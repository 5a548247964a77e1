"""Smoke test: every demo script runs to completion in a fresh interpreter."""

import subprocess
import sys

import pytest

from support import ROOT, child_env

DEMOS = sorted((ROOT / "demos").glob("*.py"))


def test_all_demos_found():
    assert DEMOS


@pytest.mark.parametrize("script", DEMOS, ids=lambda path: path.name)
def test_demo_runs_cleanly(script):
    proc = subprocess.run(
        [sys.executable, str(script)],
        capture_output=True, text=True, env=child_env(), cwd=ROOT, timeout=120, check=False,
    )
    assert proc.returncode == 0, proc.stderr
    assert "Traceback" not in proc.stderr
    assert proc.stdout
