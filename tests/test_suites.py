"""Residual aggregation: a NaN or inf residual fails its check whatever the
target order, in both "below" and "exceeds" modes."""

import math

import pytest

from emtkit.suites import CHECKS, CheckOutcome, RunConfig, Target, _worst, build_report

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


@pytest.mark.parametrize("check_id", ["tilde-identity-map", "canonical-obstruction-magnitude"])
def test_non_finite_relative_residual_fails_check(check_id):
    check = CHECKS[check_id]
    oc = CheckOutcome(check, [Target("bad", 4, 1.0, NAN)], 0.0)
    assert not oc.passed(check.tolerance)


@pytest.mark.parametrize("bad", [(NAN, NAN), (1e-16, NAN), (INF, INF)])
def test_worst_keeps_non_finite_pair_in_either_position(bad):
    good = (3e-3, 1e-9)
    for pair in (_worst(bad, good), _worst(good, bad)):
        assert not all(math.isfinite(v) for v in pair)
        assert not pair[0] < good[0]          # a finite residual is not hidden
    acc = (0.0, 0.0)
    for s in (good, bad, (1e-20, 1e-20)):
        acc = _worst(acc, s)
    assert not all(math.isfinite(v) for v in acc)


def test_worst_of_finite_pairs_is_the_tuple_maximum():
    assert _worst((1e-3, 1e-9), (1e-4, 1.0)) == (1e-3, 1e-9)
    assert _worst((0.0, 0.0), (2e-14, 5e-15)) == (2e-14, 5e-15)


def test_finite_targets_still_pass():
    check = CHECKS["tilde-identity-map"]
    oc = CheckOutcome(check, [Target("a", 1, 0.0, 0.0), Target("b", 1, 1e-15, 1e-15)], 0.0)
    assert oc.max_abs == 1e-15 and oc.passed(check.tolerance)
    assert CheckOutcome(check, [], 0.0).max_abs == 0.0
