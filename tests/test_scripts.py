"""Smoke tests for the standalone scripts under scripts/ and for the
`python -m degenbell` entry point."""

import csv
import os
import subprocess
import sys
from pathlib import Path

from degenbell import cli

ROOT = Path(__file__).resolve().parent.parent


def src_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(ROOT / "src"), env.get("PYTHONPATH")) if p
    )
    return env


def test_limit_convergence_error_shrinks():
    proc = subprocess.run(
        [sys.executable, str(ROOT / "scripts" / "limit_convergence.py"), "--n", "4", "--x", "1"],
        capture_output=True,
        text=True,
        env=src_env(),
        check=False,
    )
    assert proc.returncode == 0, proc.stderr
    header, *rows = list(csv.reader(proc.stdout.splitlines()))
    assert header == ["lambda", "degenerate", "classical", "abs_error"]
    errors = [float(row[3]) for row in rows]
    assert len(errors) > 1
    assert all(later < earlier for earlier, later in zip(errors, errors[1:]))


def test_module_entry_point_writes_utf8(capsys):
    # An ASCII stdout would fail on the λ in every dbell label unless the
    # entry point switches stdout to UTF-8.
    args = ["table", "--family", "dbell", "--n-max", "3"]
    env = {**src_env(), "PYTHONIOENCODING": "ascii"}
    proc = subprocess.run(
        [sys.executable, "-m", "degenbell", *args], capture_output=True, env=env, check=False
    )
    assert proc.returncode == 0, proc.stderr
    assert cli.main(args) == 0
    expected = capsys.readouterr().out
    assert "λ" in expected
    assert proc.stdout == expected.encode("utf-8")
