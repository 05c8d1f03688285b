"""Smoke test: every demo runs to completion.

Each Python demo asserts its own answer against an exact oracle, so exit
code 0 means the demo's claims still hold.  The shell walkthrough calls the
``riskdp`` console script; the test puts a stand-in for it on ``PATH`` that
runs ``python -m riskdp.cli``, so no installed package is needed.
"""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
DEMOS = ["01_newsvendor.py", "02_risk_sweep.py", "03_feasibility_cuts.py",
         "04_demand_tree.py"]


def _env():
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(ROOT / "src")] + [p for p in [env.get("PYTHONPATH")] if p])
    return env


@pytest.mark.parametrize("demo", DEMOS)
def test_demo_runs(demo):
    proc = subprocess.run([sys.executable, str(ROOT / "demos" / demo)], env=_env(),
                          cwd=ROOT, capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stdout + proc.stderr


def test_cli_walkthrough_runs(tmp_path):
    bin_dir = tmp_path / "bin"
    bin_dir.mkdir()
    shim = bin_dir / "riskdp"
    shim.write_text(f'#!/bin/sh\nexec "{sys.executable}" -m riskdp.cli "$@"\n')
    shim.chmod(0o755)
    env = _env()
    env["PATH"] = os.pathsep.join([str(bin_dir), env.get("PATH", "")])
    env["TMPDIR"] = str(tmp_path)  # the walkthrough's mktemp -d lands here
    proc = subprocess.run(["sh", str(ROOT / "demos" / "05_cli_walkthrough.sh")], env=env,
                          cwd=ROOT, capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stdout + proc.stderr
    assert "0 violations" in proc.stdout
