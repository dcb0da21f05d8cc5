"""Correctness gate and accuracy headroom for one ``emtkit verify`` report.

The gate re-derives every verdict from the residual, the tolerance and the
mode of each row.  The engine's own ``passed`` flag must be set too, but it
is not enough, because a NaN residual can pass through a ``max()`` taken in
the wrong order.
"""

from __future__ import annotations

import math

# a residual of exactly 0 is scored as this one, so headroom stays finite
RESIDUAL_FLOOR = 1e-300
# headroom given to a residual that is NaN or infinite: worse than any
# finite residual can score
NONFINITE_HEADROOM = -400.0


def row_value(row: dict) -> float:
    """The residual a row is judged on: ``max_abs`` or ``max_rel``."""
    return float(row["max_abs"] if row["measure"] == "abs" else row["max_rel"])


def row_headroom(row: dict) -> float:
    """Decades between a row's residual and its tolerance, positive when
    the row passes: log10(tol/residual) for ``below`` checks and
    log10(residual/tol) for ``exceeds`` negative controls."""
    value = row_value(row)
    if not math.isfinite(value):
        return NONFINITE_HEADROOM
    decades = math.log10(max(value, RESIDUAL_FLOOR)) - math.log10(float(row["tolerance"]))
    return -decades if row["mode"] == "below" else decades


def headroom_decades(rows) -> float:
    """The smallest headroom over the rows of one report."""
    return min(row_headroom(row) for row in rows)


def row_failures(row: dict) -> list:
    """Reasons a row fails the gate; empty when it passes."""
    reasons = []
    for key in ("max_abs", "max_rel"):
        if not math.isfinite(float(row[key])):
            reasons.append(f"{row['id']}: {key} is {row[key]}")
    if row["mode"] not in ("below", "exceeds"):
        reasons.append(f"{row['id']}: unknown mode {row['mode']!r}")
    elif row_headroom(row) < 0:
        op = "<=" if row["mode"] == "below" else ">="
        reasons.append(f"{row['id']}: residual {row_value(row):.3e} is not "
                       f"{op} {float(row['tolerance']):.1e}")
    if row["passed"] is not True:
        reasons.append(f"{row['id']}: the report marks it failed")
    return reasons


def check_report(report: dict, expected_ids) -> tuple:
    """Gate one report against the expected check ids.

    Returns ``(failed_ids, reasons)``: the expected checks that count as
    failed, and one line per problem found.  A missing or unexpected check
    id, or a duplicated one, fails the whole report.
    """
    rows = report.get("checks", [])
    ids = [row["id"] for row in rows]
    expected = set(expected_ids)
    if sorted(ids) != sorted(expected):
        missing = sorted(expected - set(ids))
        extra = sorted(set(ids) - expected)
        dup = sorted({i for i in ids if ids.count(i) > 1})
        return sorted(expected), [f"check ids differ: missing {missing}, "
                                  f"unexpected {extra}, duplicated {dup}"]
    failed, reasons = [], []
    for row in rows:
        problems = row_failures(row)
        if problems:
            failed.append(row["id"])
            reasons.extend(problems)
    summary_failed = report.get("summary", {}).get("failed")
    if summary_failed != len(failed):
        reasons.append(f"summary reports {summary_failed} failed checks, "
                       f"the gate finds {len(failed)}")
    return failed, reasons
