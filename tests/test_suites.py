"""Residual aggregation: the fold of check-body yields into Targets, and a NaN
or inf residual failing its check whatever the target order, in both
"below" and "exceeds" modes; a check with a target that measured no point
fails.  Each check run at its declared jet order, reading the run's one
build per frame and per theory through truncated views that equal fresh
builds at that order and form no reference cycle.  The run's caches: one
monomial basis per box and frame, each seeded random field and each catalog
vector evaluated once per frame, vector families evaluated in stacks of at
most 64 sample points, one gauge-shifted theory per scenario,
read-only cached tables, and check rows that do not depend on which checks
ran before.  Checks whose targets are fixed whatever the selection, and
every check reporting exactly the targets its declaration names.  Selections
refused from the config alone, before any frame is built.  The on-shell
gate: each scenario's claim verified once, on the run's own frames."""

import dataclasses
import gc
import json
import math
import sys
import weakref
from collections import Counter

import numpy as np
import pytest

from emtkit import catalog, cli, fieldtheory, suites
from emtkit.catalog import SCENARIOS, CatalogClaimError, sample_points, scenario_box
from emtkit.fieldtheory import evaluate_theory
from emtkit.geometry import geometry_at
from emtkit.jets import Jet, JetOrderError, jexp
from emtkit.suites import (
    CHECKS,
    CheckOutcome,
    RunConfig,
    RunContext,
    SUITE_ORDER,
    Target,
    _fold,
    build_report,
    run_checks,
)
from emtkit.tensors import max_abs

NAN, INF = float("nan"), float("inf")


def _targets(bad, bad_first):
    good = [Target("good-a", 4, 1e-16, 1e-16), Target("good-b", 4, 2e-3, 2e-3)]
    return [bad] + good if bad_first else good + [bad]


@pytest.mark.parametrize("bad_first", [True, False], ids=["bad-first", "bad-last"])
@pytest.mark.parametrize("value", [NAN, INF], ids=["nan", "inf"])
@pytest.mark.parametrize("check_id", ["tilde-identity-map",            # below
                                      "canonical-obstruction-magnitude"])  # exceeds
def test_non_finite_target_fails_check(check_id, value, bad_first):
    check = CHECKS[check_id]
    oc = CheckOutcome(check, _targets(Target("bad", 4, value, value), bad_first), 0.0)
    assert not math.isfinite(oc.max_abs) and not math.isfinite(oc.max_rel)
    assert not oc.passed(check.tolerance)
    row = build_report(RunConfig(), [oc])["checks"][0]
    assert row["passed"] is False


@pytest.mark.parametrize("cfg", [
    RunConfig(),
    RunConfig(scenarios=("em-wave-4d",), spacetimes=("schwarzschild", "bump2"),
              tolerances={"master-identity": 1e-9}, grid_2d=(32, 48)),
], ids=["default", "set"])
def test_echoed_config_round_trips_through_json(cfg):
    echo = json.loads(json.dumps(cfg.echo()))
    assert set(echo) == {f.name for f in dataclasses.fields(RunConfig)}
    back = {k: tuple(v) if isinstance(v, list) else v for k, v in echo.items()}
    assert RunConfig(**back) == cfg


@pytest.mark.parametrize("check_id", ["tilde-identity-map", "canonical-obstruction-magnitude"])
def test_non_finite_relative_residual_fails_check(check_id):
    check = CHECKS[check_id]
    oc = CheckOutcome(check, [Target("bad", 4, 1.0, NAN)], 0.0)
    assert not oc.passed(check.tolerance)


@pytest.mark.parametrize("bad", [(NAN, 1.0), (1e-16, NAN), (INF, INF), (1e-16, INF)])
def test_worst_keeps_non_finite_pair_in_either_position(bad):
    """A NaN or inf residual or scale, in any yield of a target, leaves the
    target non-finite and hides no finite residual."""
    good = [(3e-3, 1.0), (1e-20, 1e-20)]
    for position in range(len(good) + 1):
        pairs = good[:position] + [bad] + good[position:]
        target = _fold("t", ((1, r, s) for r, s in pairs))
        assert not (math.isfinite(target.value_abs) and math.isfinite(target.value_rel))
        assert not target.value_abs < 3e-3
        assert not CheckOutcome(CHECKS["tilde-identity-map"], [target], 0.0).passed(1.0)


def test_fold_of_finite_yields_is_the_ratio_of_their_maxima():
    """max|r| / max|s| over a target's yields: neither the ratio of the yield
    with the largest |r| (1e-3 / 10) nor the largest per-yield ratio, which
    a roundoff scale blows up (1e-8 / 1e-12)."""
    pairs = [(np.array([1e-3, -2e-4]), 10.0), (-1e-4, np.array([[100.0], [-3.0]])),
             (1e-8, 1e-12)]
    target = _fold("t", ((1, r, s) for r, s in pairs))
    assert (target.value_abs, target.value_rel) == (1e-3, 1e-3 / 100.0)
    oc = CheckOutcome(CHECKS["tilde-identity-map"],
                      [target, Target("u", 1, 1e-2, 1e-6)], 0.0)
    assert (oc.max_abs, oc.max_rel) == (1e-2, 1e-5)


def test_finite_targets_still_pass():
    check = CHECKS["tilde-identity-map"]
    oc = CheckOutcome(check, [Target("a", 1, 0.0, 0.0), Target("b", 1, 1e-15, 1e-15)], 0.0)
    assert oc.max_abs == 1e-15 and oc.passed(check.tolerance)
    assert CheckOutcome(check, [], 0.0).max_abs == 0.0


def test_outcome_value_is_the_figure_its_measure_names():
    targets = [Target("a", 1, 2e-10, 3e-7)]
    assert CheckOutcome(CHECKS["tilde-identity-map"], targets, 0.0).value == 2e-10
    assert CheckOutcome(CHECKS["variational-agreement-4d"], targets, 0.0).value == 3e-7


def test_a_check_that_measures_no_point_fails(monkeypatch):
    # a body that yields nothing on its own defaults runs and fails
    gauge = CHECKS["gauge-invariance-metric-emt"]
    monkeypatch.setitem(CHECKS, gauge.id, dataclasses.replace(gauge, fn=lambda ctx: []))
    cfg = RunConfig(suites=("gauge",), points=2)
    rows = build_report(cfg, run_checks(cfg))["checks"]
    assert [(r["id"], r["points"] > 0, r["passed"]) for r in rows] == [
        (gauge.id, False, False),
        ("gauge-invariance-improved-emt", True, True),
        ("gauge-variance-canonical-emt", True, True)]
    check = CHECKS["tilde-identity-map"]
    assert not CheckOutcome(check, [Target("a", 0, 0.0, 0.0)], 0.0).passed(1.0)


def test_a_target_that_measures_no_point_fails_its_check(monkeypatch, capsys):
    # bump2 claims no symmetry here, so the body yields nothing for it,
    # while minkowski2 measures its three vectors
    bump2 = catalog.SPACETIMES["bump2"]
    monkeypatch.setitem(catalog.SPACETIMES, "bump2", dataclasses.replace(bump2, killing=()))
    check = CHECKS["killing-metric-flow"]
    cfg = RunConfig(suites=("lie-calculus",), spacetimes=("minkowski2", "bump2"), points=2)
    oc = next(oc for oc in run_checks(cfg) if oc.check is check)
    assert [(t.name, t.points) for t in oc.targets] == [("minkowski2", 2 * 3), ("bump2", 0)]
    assert oc.value <= check.tolerance and not oc.passed(check.tolerance)
    assert cli.main(["verify", "--suite", "lie-calculus", "--spacetime", "minkowski2",
                     "--spacetime", "bump2", "--points", "2"]) == cli.EXIT_FAIL
    out = capsys.readouterr().out.splitlines()
    k = next(k for k, line in enumerate(out) if line.startswith(f"[FAIL] {check.id} "))
    assert [line.split(":")[0].strip() for line in out[k + 1:k + 3]] == ["minkowski2", "bump2"]
    assert out[k + 2].endswith("(0 pts)")


@pytest.mark.parametrize("cfg,message", [
    (RunConfig(suites=("gauge",), scenarios=("scalar-wave-2d",), points=2),
     "selected scenarios scalar-wave-2d leave no target for gauge-invariance-metric-emt, "
     "gauge-invariance-improved-emt, gauge-variance-canonical-emt"),
    (RunConfig(suites=("emt-onshell",), scenarios=("schwarzschild-scalar", "scalar-wave-4d"),
               points=2),
     "selected scenarios schwarzschild-scalar, scalar-wave-4d leave no target for "
     "em-field-strength-form"),
    (RunConfig(suites=("gauge", "lie-calculus"), scenarios=("scalar-wave-4d",),
               spacetimes=("schwarzschild", "bump2"), points=2),
     "selected spacetimes schwarzschild, bump2 leave no target for parallel-claims; "
     "selected scenarios scalar-wave-4d leave no target for gauge-invariance-metric-emt, "
     "gauge-invariance-improved-emt, gauge-variance-canonical-emt"),
], ids=["gauge", "em-form", "both"])
def test_a_selection_that_leaves_a_check_no_target_is_rejected(monkeypatch, cfg, message):
    # decided from the config alone: no frame is built and no check runs
    monkeypatch.setattr(suites, "geometry_at", _no_frame)
    seen = []
    with pytest.raises(ValueError) as exc:
        run_checks(cfg, emit=lambda outcome, tol: seen.append(outcome.check.id))
    assert str(exc.value) == message
    assert seen == []


@pytest.mark.parametrize("spacetimes", [None, ("bump2",)], ids=["alone", "with-empty-selection"])
def test_an_off_shell_scenario_is_refused_before_any_check(monkeypatch, spacetimes):
    # the on-shell guard comes before the empty-selection error, and before
    # any frame is built or claim verified
    monkeypatch.setattr(suites, "geometry_at", _no_frame)
    cfg = RunConfig(suites=("lie-calculus", "emt-onshell"), spacetimes=spacetimes,
                    scenarios=("scalar-blob-2d",), points=2)
    with pytest.raises(suites.OffShellError, match="^scenario 'scalar-blob-2d' is claimed "
                                                   "off shell, and the check holds only on shell$"):
        run_checks(cfg, emit=lambda outcome, tol: pytest.fail("a check ran"))


def _no_frame(*args, **kwargs):
    raise AssertionError("a frame was built")


def test_a_selection_some_of_whose_entries_a_check_keeps_runs():
    cfg = RunConfig(suites=("gauge",), scenarios=("scalar-wave-2d", "coulomb-4d"), points=2)
    rows = build_report(cfg, run_checks(cfg))["checks"]
    assert len(rows) == 3 and all(r["passed"] and r["points"] == 2 for r in rows)


def test_checks_with_a_fixed_target_keep_it_whatever_the_selection():
    # these checks name their own targets, so a scenario selection neither
    # narrows nor empties them
    fixed = {"flow-chain-rule-negative-control": ["broken-scalar"],
             "canonical-obstruction-magnitude": ["schwarzschild-coulomb"],
             "master-identity": ["em-wave-4d"]}
    cfg = RunConfig(suites=("kinematic-lagrangian", "emt-onshell"),
                    scenarios=("em-wave-4d",), points=2, xi_count=1)
    targets = {oc.check.id: [t.name for t in oc.targets] for oc in run_checks(cfg)}
    assert {k: targets[k] for k in fixed} == fixed
    cfg = RunConfig(suites=("variational",), scenarios=("scalar-wave-2d",),
                    grid_2d=(64, 64), grid_4d=(8, 8, 8, 8))
    assert [[t.name for t in oc.targets] for oc in run_checks(cfg)] == [
        ["scalar-wave-2d"], ["em-wave-4d"], ["gradient-vector-2d"]]


@pytest.mark.parametrize("selection", [{}, {"scenarios": ("schwarzschild-coulomb",
                                                         "scalar-wave-2d")},
                                       {"spacetimes": ("bump2", "minkowski2")}],
                         ids=["default", "scenarios", "spacetimes"])
def test_each_check_reports_the_targets_its_declaration_names(selection):
    cfg = RunConfig(points=2, xi_count=1, grid_2d=(16, 16), grid_4d=(8, 8, 8, 8),
                    **selection)
    outcomes = run_checks(cfg)
    assert [oc.check.id for oc in outcomes] == list(CHECKS)
    for oc in outcomes:
        spec = oc.check.targets
        declared = spec.names(cfg)
        assert declared and [t.name for t in oc.targets] == declared, oc.check.id
        # a declared target is one the body measures
        assert all(t.points > 0 for t in oc.targets), oc.check.id
        if spec.narrows in selection:
            assert set(declared) <= set(selection[spec.narrows]), oc.check.id


def _residuals(seed, count):
    rng = np.random.default_rng(seed)
    return [rng.normal(size=(3, 4)) * 10.0 ** -k for k in range(count)]


def test_fold_merges_consecutive_yields_of_one_target():
    r = _residuals(1, 2)
    got = _fold("a", iter([(2, r[0], 1.0), (3, r[1], r[0])]))
    assert (got.name, got.points) == ("a", 5)
    top = max_abs(r[0])
    assert top > 1.0 > max_abs(r[1])
    # the scales are 1 and |r[0]|, so the ratio is |r[0]| / |r[0]|
    assert (got.value_abs, got.value_rel) == (top, 1.0)


@pytest.mark.parametrize("position", [0, 1, 2], ids=["first", "middle", "last"])
def test_fold_keeps_a_nan_residual_anywhere_in_a_target(position):
    r = _residuals(2, 3)
    r[position] = r[position].copy()
    r[position][1, 2] = np.nan
    target = _fold("t", ((4, res, 1.0) for res in r))
    assert target.points == 12
    assert not (math.isfinite(target.value_abs) and math.isfinite(target.value_rel))


def test_fold_of_a_body_that_yields_nothing_measures_no_point():
    target = _fold("t", iter(()))
    assert repr(target) == repr(Target("t", 0, 0.0, 0.0))
    assert not CheckOutcome(CHECKS["tilde-identity-map"], [target], 0.0).passed(1.0)


@pytest.mark.parametrize("scale", [1.0, 3.5e-7, "array", "nan", "jet", "empty"])
def test_fold_of_a_single_yield_is_its_stats_bit_for_bit(scale):
    res = _residuals(3, 1)[0]
    scale = {"array": res[::-1], "nan": float("nan"),
             "jet": Jet(2, 1, 2, [res[::-1], np.ones((3, 4, 2))]),
             "empty": np.empty(0)}.get(scale, scale)
    target = _fold("only", [(7, res, scale)])
    r = max_abs(res)
    want = Target("only", 7, r, r / max(max_abs(scale), 1e-300))
    assert repr(target) == repr(want)


def test_registered_check_returns_folded_targets():
    targets = CHECKS["tilde-trace-collapse"].fn(RunContext(RunConfig(points=2), 1))
    assert [(t.name, t.points) for t in targets] == [("schwarzschild", 10)]
    assert all(isinstance(t, Target) for t in targets)


# the variational checks build their frames at fixed orders of their own
@pytest.mark.parametrize("check_id", [c for c, chk in CHECKS.items()
                                      if chk.suite != "variational"])
def test_declared_minimum_jet_order_is_the_lowest_that_runs(check_id):
    """A check runs at its declared order, fails one order below it (orders
    start at 0), and one order above gives the same targets: the tables it
    drops were never read."""
    check = CHECKS[check_id]

    def targets(order):
        ctx = RunContext(RunConfig(points=2, xi_count=1), order)
        return [(t.name, t.points, t.value_abs, t.value_rel) for t in check.fn(ctx)]

    assert targets(check.jet_order) == targets(check.jet_order + 1)
    if check.jet_order > 0:
        with pytest.raises(JetOrderError):
            targets(check.jet_order - 1)


def test_a_run_builds_one_frame_per_box_and_one_theory_per_scenario(monkeypatch):
    frames = _count_calls(monkeypatch, "geometry_at", lambda metric, pts, order: (
        metric.name, pts.tobytes(), order))
    theories = _count_calls(monkeypatch, "evaluate_theory", lambda theory, field, fr: (
        theory.name, field.name, id(fr)))
    cfg = RunConfig(suites=tuple(s for s in SUITE_ORDER if s != "variational"),
                    points=2, xi_count=1)
    outcomes = run_checks(cfg)
    assert len(outcomes) == 35
    assert frames and set(frames.values()) == {1}
    assert {order for _, _, order in frames} == {3}
    assert len({(name, pts) for name, pts, _ in frames}) == len(frames)
    # each scenario once, each gauge scenario once more shifted, and the
    # negative control's broken theory once
    gauge = [sc for sc in SCENARIOS.values() if sc.theory.name == "maxwell"]
    assert set(theories.values()) == {1}
    assert len(theories) == len(SCENARIOS) + len(gauge) + 1


def _top_and_fresh(sc, order, top=3, points=4):
    """``sc``'s theory frame built at ``top`` and at ``order`` on the same
    points."""
    pts = sample_points(scenario_box(sc), points, 3)
    metric = catalog.spacetime(sc.spacetime).metric
    return [evaluate_theory(sc.theory, sc.field, geometry_at(metric, pts, m))
            for m in (top, order)]


_TABLES = {
    "g": lambda tf: tf.frame.g, "ginv": lambda tf: tf.frame.ginv,
    "Gamma": lambda tf: tf.frame.gamma, "Riemann": lambda tf: tf.frame.riemann,
    "L": lambda tf: tf.L, "dL/dg": lambda tf: tf.dL_dg, "Theta": lambda tf: tf.theta,
    "T_C": lambda tf: tf.emt_canonical, "T_M": lambda tf: tf.emt_metric,
    "T_B": lambda tf: tf.emt_belinfante,
}


@pytest.mark.parametrize("order", [1, 2])
@pytest.mark.parametrize("scen_name", list(SCENARIOS))
def test_truncated_view_equals_a_fresh_build_table_for_table(scen_name, order):
    """Every table a view at ``order`` reads equals that of a build at
    ``order`` bit for bit; a quantity the build cannot form at ``order``
    raises JetOrderError on the view too."""
    top, fresh = _top_and_fresh(SCENARIOS[scen_name], order)
    view = top.truncate(order)
    assert view.frame.order == order and top.truncate(3) is top
    assert view is top.truncate(order) and view.frame is top.frame.truncate(order)
    data = lambda t: t if isinstance(t, Jet) else t.components   # noqa: E731
    formed = 0
    for name, get in _TABLES.items():
        try:
            want = get(fresh)
        except JetOrderError:
            with pytest.raises(JetOrderError):
                get(view)
            continue
        got = get(view)
        assert data(got).order == data(want).order, name
        for a, b in zip(data(got).data, data(want).data, strict=True):
            assert np.array_equal(a, b), name
        formed += 1
    assert formed >= 6


def test_dropped_frames_and_their_views_are_freed_without_gc():
    """A view is memoised on the object it truncates and the object at its own
    order is itself, not a memo entry, so neither a Frame nor a TheoryFrame
    is a reference cycle: it is freed as soon as it is dropped."""
    sc = SCENARIOS["schwarzschild-coulomb"]
    gc.disable()
    try:
        tf, _ = _top_and_fresh(sc, 2)
        for m in (2, 3):
            tf.truncate(m).frame.riemann
        tf.truncate(2).emt_metric
        tf.truncate(1).theta
        refs = [weakref.ref(x) for x in (tf, tf.frame, tf.truncate(2),
                                         tf.frame.truncate(1))]
        del tf
        assert [r() for r in refs] == [None] * len(refs)
    finally:
        gc.enable()


# --------------------------------------------------------------------------
# the run's caches of seeded random fields and gauge-shifted theories
# --------------------------------------------------------------------------


def _count_calls(monkeypatch, name, key):
    """Count calls of ``suites.<name>`` by ``key(*args)``; None keys are skipped."""
    counts = Counter()
    original = getattr(suites, name)

    def counted(*args, **kwargs):
        k = key(*args)
        if k is not None:
            counts[k] += 1
        return original(*args, **kwargs)

    monkeypatch.setattr(suites, name, counted)
    return counts


def test_each_seeded_field_is_evaluated_once_per_frame(monkeypatch):
    # each coefficient sum is counted under the (variance, seed, frame) of
    # the random_field call or the (count, frame) of the random_xis call
    # that makes it; a sum outside one has no key
    counts, asked = Counter(), []
    random_field, random_xis = RunContext.random_field, RunContext.random_xis
    coefficient_sum = suites.coefficient_sum

    def calling(key, method, *args):
        asked.append(key)
        try:
            return method(*args)
        finally:
            asked.pop()

    def field(self, variance, box, seed, fr):
        return calling((variance, seed, id(fr)), random_field, self, variance, box, seed, fr)

    def xis(self, fr, count=None):
        return calling(("xis", count or self.cfg.xi_count, id(fr)), random_xis, self, fr, count)

    def summed(coef, basis, **kwargs):
        counts[asked[-1]] += 1
        return coefficient_sum(coef, basis, **kwargs)

    monkeypatch.setattr(RunContext, "random_field", field)
    monkeypatch.setattr(RunContext, "random_xis", xis)
    monkeypatch.setattr(suites, "coefficient_sum", summed)
    run_checks(RunConfig(suites=("lie-calculus", "kinematic-lagrangian", "emt-onshell"),
                         points=2, xi_count=4))
    assert set(counts.values()) == {1}
    # the xi families of one, three and four members are one sum each per frame
    assert {key[1] for key in counts if key[0] == "xis"} == {1, 3, 4}
    assert any(key[0] != "xis" for key in counts)


def test_a_run_builds_one_monomial_basis_per_box_and_frame(monkeypatch):
    bases = _count_calls(monkeypatch, "monomial_basis", lambda box, coords: (
        box, id(coords[0])))
    sums = _count_calls(monkeypatch, "coefficient_sum", lambda coef, basis: id(basis))
    run_checks(RunConfig(suites=("tilde-algebra", "kinematic-lagrangian", "emt-onshell"),
                         points=2, xi_count=2))
    assert bases and set(bases.values()) == {1}
    # every basis is summed over, and most by more than one field
    assert len(sums) == len(bases)
    assert sum(sums.values()) > 2 * len(bases)


def test_each_catalog_vector_is_evaluated_once_per_frame(monkeypatch):
    counts = _count_calls(monkeypatch, "evaluate", lambda fld, fr: (id(fld), id(fr)))
    run_checks(RunConfig(suites=("emt-onshell",), points=2, xi_count=1))
    assert counts and set(counts.values()) == {1}
    # two checks read every Killing vector of every on-shell scenario, at
    # orders 3 and 2; scenarios on one spacetime and box share their frame
    on_shell = [sc for sc in SCENARIOS.values() if sc.on_shell]
    killing = lambda sc: len(catalog.spacetime(sc.spacetime).killing)   # noqa: E731
    boxes = {(sc.spacetime, scenario_box(sc)): killing(sc) for sc in on_shell}
    assert len(counts) == 2 * sum(boxes.values()) < 2 * sum(map(killing, on_shell))


def test_gauge_checks_share_one_shifted_theory_per_scenario(monkeypatch):
    counts = _count_calls(monkeypatch, "evaluate_theory", lambda theory, field, fr: (
        "shifted" if field.name.endswith("+grad chi") else None))
    outcomes = run_checks(RunConfig(suites=("gauge",), points=2))
    gauge_scenarios = [sc for sc in SCENARIOS.values() if sc.theory.name == "maxwell"]
    assert len(outcomes) == 3 and all(oc.targets for oc in outcomes)
    assert counts["shifted"] == len(gauge_scenarios) > 0


def test_gauge_shifted_theories_are_built_at_the_order_their_checks_read(monkeypatch):
    orders = _count_calls(monkeypatch, "evaluate_theory", lambda theory, field, fr: (
        fr.order if field.name.endswith("+grad chi") else None))
    cfg = RunConfig(suites=("emt-onshell", "gauge"), points=2, xi_count=1)
    assert max(c.jet_order for c in CHECKS.values() if c.suite in cfg.suites) == 3
    run_checks(cfg)
    gauge_orders = {c.jet_order for c in CHECKS.values() if c.suite == "gauge"}
    assert set(orders) == gauge_orders == {2}


def test_cached_field_tables_are_read_only():
    ctx = RunContext(RunConfig(points=2, xi_count=2), 2)
    fr = ctx.frame("minkowski4")
    xis = ctx.random_xis(fr)
    assert ctx.random_xis(fr) is xis and ctx.random_xis(fr, 2) is xis
    assert xis.components.batch_shape == (2, 2)
    for table in xis.components.data:
        with pytest.raises(ValueError):
            table += 1.0
    for t in ctx.gauge_shifted_emts("em-wave-4d"):
        with pytest.raises(ValueError):
            t.components.data[0] += 1.0
    (basis,) = ctx._bases.values()
    for table in (basis.tables, *basis.zero.data):
        with pytest.raises(ValueError):
            table += 1.0
    (rot,) = catalog.spacetime("bump2").killing
    bump = ctx.frame("bump2")
    assert ctx.field(rot, bump) is ctx.field(rot, bump)
    with pytest.raises(ValueError):
        ctx.field(rot, bump).components.data[1] += 1.0
    # Minkowski's ten vectors are affine: one stack, whose order-2 table is
    # the structural zero of every member
    killing = catalog.spacetime("minkowski4").killing
    (stack,) = ctx.vector_stacks(killing, fr)
    assert ctx.vector_stacks(killing, fr)[0] is stack
    assert stack.components.batch_shape == (len(killing), 2)
    live, zero = stack.components.data[1:]
    assert not any(zero.strides) and not zero.flags.writeable and zero.shape == (10, 2, 4, 4, 4)
    for table in stack.components.data[:2]:
        with pytest.raises(ValueError):
            table += 1.0
    # Schwarzschild's two affine vectors and its two rotations, dense at
    # every order, are two stacks
    sch = ctx.frame("schwarzschild")
    stacks = ctx.vector_stacks(catalog.spacetime("schwarzschild").killing, sch)
    assert [s.components.batch_shape[0] for s in stacks] == [2, 2]
    assert not any(stacks[0].components.data[2].strides)
    assert all(any(t.strides) for t in stacks[1].components.data)


@pytest.mark.parametrize("points, size", [(16, 4), (100, 1)])
def test_checks_evaluate_families_in_stacks_of_at_most_64_points(points, size):
    ctx = RunContext(RunConfig(points=points, xi_count=10), 2)
    fr = ctx.frame("minkowski4")
    xis = ctx.random_xis(fr)
    stacks = ctx.xi_stacks(fr)
    counts = [min(size, 10 - k) for k in range(0, 10, size)]
    assert [s.components.batch_shape for s in stacks] == [(c, points) for c in counts]
    start = 0
    for s in stacks:
        for t, whole in zip(s.components.data, xis.components.data):
            assert t.flags.c_contiguous and not t.flags.writeable
            assert np.shares_memory(t, whole)
            assert t.tobytes() == whole[start:start + t.shape[0]].tobytes()
        start += s.components.batch_shape[0]
    assert start == 10
    # Minkowski's ten affine Killing vectors: one zero pattern, cut into
    # stacks of ``size``, each keeping the structural zero of order 2
    stacks = ctx.vector_stacks(catalog.spacetime("minkowski4").killing, fr)
    assert [s.components.batch_shape[0] for s in stacks] == counts
    assert all(not any(s.components.data[2].strides) for s in stacks)


def test_check_rows_do_not_depend_on_which_checks_ran_before():
    def rows(suites_):
        cfg = RunConfig(suites=suites_, points=3, xi_count=3, seed=5)
        return [r for r in build_report(cfg, run_checks(cfg))["checks"]
                if r["suite"] == "emt-onshell"]

    alone = rows(("emt-onshell",))
    assert len(alone) == 16
    assert rows(("kinematic-lagrangian", "emt-onshell", "gauge")) == alone


# --------------------------------------------------------------------------
# the on-shell gate: one claim verification per scenario, on the run's frames
# --------------------------------------------------------------------------


def test_theories_are_evaluated_on_run_frames_and_claims_verified_once(monkeypatch):
    built = []
    frame = RunContext.frame

    def recorded(self, *args, **kwargs):
        built.append(frame(self, *args, **kwargs))
        return built[-1]

    monkeypatch.setattr(RunContext, "frame", recorded)
    seen = []
    original = fieldtheory.evaluate_theory

    def evaluate_theory(theory, field, fr):
        seen.append(fr)
        return original(theory, field, fr)

    # rebind every module-level name of evaluate_theory in the package
    for key, module in list(sys.modules.items()):
        if key == "emtkit" or key.startswith("emtkit."):
            for attr, value in list(vars(module).items()):
                if value is original:
                    monkeypatch.setattr(module, attr, evaluate_theory)
    verified = _count_calls(monkeypatch, "verify_scenario_claims",
                            lambda sc, *rest: sc.name)
    run_checks(RunConfig(suites=("kinematic-lagrangian", "emt-onshell", "gauge"),
                         points=2, xi_count=1))
    assert seen and all(any(fr is b for b in built) for fr in seen)
    assert set(verified) == set(SCENARIOS) and set(verified.values()) == {1}


def test_claim_is_verified_on_every_run_point_before_its_first_check(monkeypatch):
    # scalar-wave-2d plus a narrow bump on the last of 16 run points: on
    # shell at the other 15, off shell at that one
    wave = SCENARIOS["scalar-wave-2d"]
    pts = sample_points(scenario_box(wave), 16, 7)
    far = pts[-1]
    w = float(np.min(np.linalg.norm(pts[:-1] - far, axis=1))) / 10.0
    base = wave.field

    def fn(coords):
        u = (coords[0] - far[0]) * (1.0 / w)
        v = (coords[1] - far[1]) * (1.0 / w)
        return base.fn(coords) + jexp(-(u * u + 2.0 * v * v))

    fake = dataclasses.replace(wave, field=dataclasses.replace(base, fn=fn))
    monkeypatch.setitem(SCENARIOS, "scalar-wave-2d", fake)
    lines = []
    with pytest.raises(CatalogClaimError, match="scalar-wave-2d' claims on-shell"):
        run_checks(RunConfig(suites=("kinematic-lagrangian", "emt-onshell"),
                             scenarios=("scalar-wave-2d", "em-wave-4d"), points=16, seed=7,
                             xi_count=1),
                   emit=lambda outcome, tol: lines.append(outcome.check.id))
    assert lines == []


# --------------------------------------------------------------------------
# the config gate: run_checks alone decides what a RunConfig may hold
# --------------------------------------------------------------------------


_INVALID_CONFIGS = [
    ({"suites": ()}, "suites must name at least one suite"),
    ({"suites": ("bogus",)}, "unknown suite 'bogus'"),
    ({"tolerances": {"bogus": 1.0}}, "unknown check 'bogus'"),
    ({"tolerances": {"master-identity": math.nan}}, "tolerances must be"),
    ({"points": 0}, "--points must be positive"),
    ({"grid_2d": (0, 0)}, "grid_2d must be a list of 2 positive integers"),
    ({"seed": 1.5}, "seed must be an integer"),
    ({"seed": -1}, "seed must be a non-negative integer"),
    ({"xi_count": 0}, "xi_count must be at least 1"),
    ({"scenarios": ("phlogiston",)}, "unknown scenario 'phlogiston'"),
    ({"spacetimes": ("flatland",)}, "unknown spacetime 'flatland'"),
    ({"suites": ("emt-onshell",), "jet_order": 2}, "--jet-order 2 is too low"),
    ({"scenarios": ()}, "scenarios must name at least one scenario"),
    ({"spacetimes": []}, "spacetimes must name at least one spacetime"),
    ({"scenarios": ("em-wave-4d", "coulomb-4d", "em-wave-4d")},
     "scenarios names 'em-wave-4d' more than once"),
    ({"spacetimes": ["bump2", "bump2"]}, "spacetimes names 'bump2' more than once"),
]


@pytest.mark.parametrize("bad,message", _INVALID_CONFIGS,
                         ids=[json.dumps(b, default=str) for b, _ in _INVALID_CONFIGS])
def test_run_checks_rejects_an_invalid_config_before_any_frame_is_built(
        monkeypatch, bad, message):
    def no_frame(*args, **kwargs):
        raise AssertionError("a frame was built for an invalid config")

    monkeypatch.setattr(suites, "geometry_at", no_frame)
    with pytest.raises(ValueError, match=message.replace("(", r"\(")):
        run_checks(RunConfig(**{"suites": ("tilde-algebra",), **bad}),
                   emit=lambda outcome, tol: pytest.fail("a check ran"))


def test_gate_keeps_the_first_broken_rule_of_a_config():
    # a bad seed type is reported before an unknown suite, and an unknown
    # suite before a too-low ceiling or a negative seed
    cases = [({"seed": 1.5, "suites": ("bogus",)}, "seed must be an integer"),
             ({"suites": ("bogus",), "jet_order": -1}, "unknown suite"),
             ({"suites": ("emt-onshell",), "jet_order": 2, "seed": -1}, "--jet-order 2")]
    for bad, message in cases:
        with pytest.raises(ValueError, match=message):
            run_checks(RunConfig(**bad))


def test_gate_checks_selections_after_every_other_rule():
    # an empty or repeated selection is reported only when nothing else is wrong
    cases = [({"scenarios": (), "seed": -1}, "seed must be a non-negative integer"),
             ({"spacetimes": ("bump2", "bump2"), "suites": ("bogus",)}, "unknown suite"),
             ({"scenarios": ("phlogiston", "phlogiston")}, "unknown scenario"),
             ({"scenarios": ("coulomb-4d",), "spacetimes": ()}, "spacetimes must name")]
    for bad, message in cases:
        with pytest.raises(ValueError, match=message):
            run_checks(RunConfig(**bad))


def test_gate_accepts_lists_where_a_config_holds_tuples():
    cfg = RunConfig(suites=["tilde-algebra"], spacetimes=["minkowski4"], points=2,
                    grid_2d=[4, 4])
    assert all(oc.passed(oc.check.tolerance) for oc in run_checks(cfg))
