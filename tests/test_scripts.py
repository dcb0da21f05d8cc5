"""Smoke tests of the scripts under scripts/: each runs to completion."""

import json
import math
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def _convergence_row(tmp_path, *args):
    """Run ``scripts/variational_convergence.py --grids 16`` with ``args``;
    return its first printed line and its one JSON row."""
    out = tmp_path / "rows.json"
    proc = subprocess.run(
        [sys.executable, str(ROOT / "scripts" / "variational_convergence.py"),
         *args, "--grids", "16", "--json", str(out)],
        capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    rows = json.loads(out.read_text())
    assert len(rows) == 1 and rows[0]["grid"] == 16
    assert math.isfinite(rows[0]["lhs"]) and math.isfinite(rows[0]["rhs"])
    return proc.stdout.splitlines()[0], rows[0]


def test_variational_convergence_script_writes_one_finite_row(tmp_path):
    head, _ = _convergence_row(tmp_path)
    assert head.startswith("gradient-vector-2d on minkowski2")


def test_variational_convergence_script_runs_its_scalar_choice(tmp_path):
    head, row = _convergence_row(tmp_path, "--scenario", "scalar-wave-2d")
    assert head.startswith("scalar-wave-2d on minkowski2")
    assert row["lhs"] != 0.0
