"""Smoke tests for the standalone scripts under scripts/."""

import csv
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def test_limit_convergence_error_shrinks():
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(ROOT / "src"), env.get("PYTHONPATH")) if p
    )
    proc = subprocess.run(
        [sys.executable, str(ROOT / "scripts" / "limit_convergence.py"), "--n", "4", "--x", "1"],
        capture_output=True,
        text=True,
        env=env,
        check=False,
    )
    assert proc.returncode == 0, proc.stderr
    header, *rows = list(csv.reader(proc.stdout.splitlines()))
    assert header == ["lambda", "degenerate", "classical", "abs_error"]
    errors = [float(row[3]) for row in rows]
    assert len(errors) > 1
    assert all(later < earlier for earlier, later in zip(errors, errors[1:]))
