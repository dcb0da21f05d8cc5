"""Tests of the benchmark itself: ``python3 -m pytest perfbench``."""

from __future__ import annotations

import json
import math
import re
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))

from gate import NONFINITE_HEADROOM, check_report, headroom_decades, row_headroom  # noqa: E402
from tracing import Tracer, layer_metrics, self_times, summarize  # noqa: E402
from workloads import END_TO_END, PER_LAYER, WORKLOADS  # noqa: E402

import child  # noqa: E402

# the smallest configs at which every check of the workload still passes
SMOKE_CONFIGS = {
    "geometry-16pt": {"suites": ["tilde-algebra", "lie-calculus", "commutator"],
                      "points": 2},
    "fields-16pt": {"suites": ["kinematic-lagrangian", "emt-onshell", "gauge"],
                    "points": 2, "xi_count": 2},
    "variational-4d": {"suites": ["variational"], "grid_2d": [16, 16],
                       "grid_4d": [8, 8, 8, 8]},
}


def _row(cid, value, tol, mode="below", measure="abs", passed=True):
    return {"id": cid, "max_abs": value, "max_rel": value, "tolerance": tol,
            "measure": measure, "mode": mode, "passed": passed, "points": 1}


# -- self time -----------------------------------------------------------------


def test_self_time_of_a_synthetic_span_tree():
    spans = [                      # listed in start order, as the tracer does
        ("root", 0.0, 10.0, -1),
        ("a", 1.0, 4.0, 0),
        ("leaf", 1.5, 2.0, 1),
        ("b", 3.0, 6.0, 0),        # overlaps a: together they cover 1..6
        ("b", 4.0, 5.0, 3),        # b inside b
        ("c", 8.0, 12.0, 0),       # runs past its parent: clipped to 8..10
    ]
    assert self_times(spans) == pytest.approx([3.0, 2.5, 0.5, 2.0, 1.0, 4.0])
    stats = summarize(spans, self_times(spans))
    assert stats["b"]["calls"] == 2
    assert stats["b"]["self_s"] == pytest.approx(3.0)
    assert stats["b"]["incl_s"] == pytest.approx(3.0)   # nested b not counted twice
    assert stats["root"]["incl_s"] == pytest.approx(10.0)


def test_layer_coverage_counts_library_self_time_under_run_checks():
    spans = [
        ("cli.main", 0.0, 10.0, -1),
        ("suites.run_checks", 1.0, 9.0, 0),
        ("suites.check.x", 1.0, 9.0, 1),
        ("jets.jet_einsum", 2.0, 8.0, 2),
        ("suites.build_report", 9.0, 9.5, 0),
    ]
    counts = {"jets.np_einsum.calls": 12, "jets.Jet.constructions": 3,
              "jets.jet_einsum.batch_points_sum": 16,
              "suites.frame_cache.calls": 4, "suites.frame_cache.hits": 3,
              "suites.theory_cache.calls": 0, "suites.theory_cache.hits": 0}
    m = layer_metrics(spans, counts)
    assert m["suites.run_checks.s"] == pytest.approx(8.0)
    assert m["trace.layer_coverage"] == pytest.approx(6.0 / 8.0)
    assert m["cli.overhead_s"] == pytest.approx(2.0)
    assert m["cli.report_s"] == pytest.approx(0.5)
    assert m["suites.check.x.incl_share"] == pytest.approx(1.0)
    assert m["jets.jet_einsum.self_share"] == pytest.approx(6.0 / 8.0)
    assert m["jets.np_einsum_per_jet_einsum"] == 12
    assert m["suites.frame_cache.hit_ratio"] == 0.75
    assert m["suites.theory_cache.hit_ratio"] == 0.0


# -- headroom and the correctness gate ---------------------------------------------


def test_headroom_of_a_zero_residual_is_finite():
    rows = [_row("zero", 0.0, 1e-12), _row("small", 1e-14, 1e-12)]
    assert math.isfinite(row_headroom(rows[0]))
    assert headroom_decades(rows) == pytest.approx(2.0)
    failed, reasons = check_report({"checks": rows, "summary": {"failed": 0}},
                                   ["zero", "small"])
    assert failed == [] and reasons == []


def test_headroom_of_a_negative_control():
    row = _row("control", 0.157, 1e-3, mode="exceeds")
    assert row_headroom(row) == pytest.approx(math.log10(157))
    assert row_headroom(_row("control", 0.0, 1e-3, mode="exceeds")) < 0


def test_nan_residual_fails_even_when_the_report_passes_it():
    rows = [_row("ok", 1e-15, 1e-12), _row("nan", float("nan"), 1e-12)]
    assert row_headroom(rows[1]) == NONFINITE_HEADROOM
    assert headroom_decades(rows) == NONFINITE_HEADROOM
    failed, reasons = check_report({"checks": rows, "summary": {"failed": 0}},
                                   ["ok", "nan"])
    assert failed == ["nan"]
    assert any("max_abs is nan" in r for r in reasons)


def test_gate_rejects_a_wrong_set_of_check_ids():
    rows = [_row("a", 0.0, 1e-12), _row("a", 0.0, 1e-12)]
    failed, reasons = check_report({"checks": rows, "summary": {"failed": 0}},
                                   ["a", "b"])
    assert failed == ["a", "b"]
    assert "missing ['b']" in reasons[0] and "duplicated ['a']" in reasons[0]


def test_gate_rejects_a_residual_over_its_tolerance():
    rows = [_row("a", 2e-12, 1e-12)]
    failed, _ = check_report({"checks": rows, "summary": {"failed": 0}}, ["a"])
    assert failed == ["a"]


# -- names -------------------------------------------------------------------------


def test_metric_names_and_units_are_well_formed():
    names = [n for n, _ in END_TO_END + PER_LAYER]
    assert len(names) == len(set(names))
    for name, unit in END_TO_END + PER_LAYER:
        assert re.fullmatch(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}", name), name
        assert re.fullmatch(r"[A-Za-z0-9_/%.-]{1,16}", unit), unit


def test_benchmark_json_matches_the_tables():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(WORKLOADS)
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] == list(END_TO_END)
    assert [(m["name"], m["unit"]) for m in spec["per_layer"]] == list(PER_LAYER)
    assert all(w["why"] == WORKLOADS[w["name"]].why for w in spec["workloads"])


# -- smoke runs --------------------------------------------------------------------


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_smoke_run_passes_the_gate_traced_and_untraced(name, tmp_path):
    workload = WORKLOADS[name]
    config = tmp_path / "config.json"
    config.write_text(json.dumps(SMOKE_CONFIGS[name]))
    child.setup(seed=7)
    from emtkit import jets, suites
    originals = (np.einsum, jets.Jet.__init__, jets.jet_einsum, suites.jet_einsum,
                 suites.RunContext.frame, dict(suites.CHECKS))
    plain = child.verify(config, 7, tmp_path / "plain.json")
    tracer = Tracer("smoke")
    with tracer:
        traced = child.verify(config, 7, tmp_path / "traced.json")

    for res in (plain, traced):
        assert res["exit_code"] == 0
        assert check_report(res["report"], workload.check_ids) == ([], [])
    assert traced["report_sha256"] == plain["report_sha256"]

    assert (np.einsum, jets.Jet.__init__, jets.jet_einsum, suites.jet_einsum,
            suites.RunContext.frame, dict(suites.CHECKS)) == originals
    m = layer_metrics(tracer.spans, tracer.counts)
    assert m["jets.jet_einsum.calls"] > 0
    assert m["jets.np_einsum.calls"] >= m["jets.jet_einsum.calls"]
    assert set(m) >= {f"suites.check.{cid}.incl_share" for cid in workload.check_ids}


def test_exits_nonzero_without_a_result_when_there_is_no_program(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "geometry-16pt",
         "--seed", "7", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert proc.stdout == ""
