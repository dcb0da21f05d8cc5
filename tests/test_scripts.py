"""Smoke tests of the scripts under scripts/: each runs to completion."""

import json
import math
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def test_variational_convergence_script_writes_one_finite_row(tmp_path):
    out = tmp_path / "rows.json"
    proc = subprocess.run(
        [sys.executable, str(ROOT / "scripts" / "variational_convergence.py"),
         "--grids", "16", "--json", str(out)],
        capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    rows = json.loads(out.read_text())
    assert len(rows) == 1 and rows[0]["grid"] == 16
    assert math.isfinite(rows[0]["lhs"]) and math.isfinite(rows[0]["rhs"])
