"""Command line runner for the verification suites.

Exit codes: 0 all checks passed, 1 at least one check failed, 2 bad usage or
configuration, 3 an on-shell precondition was violated.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import sys
import time

from . import __version__
from .catalog import SCENARIOS, SPACETIMES, CatalogClaimError
from .jets import JetOrderError
from .suites import (
    CHECKS,
    OffShellError,
    RunConfig,
    SUITE_ORDER,
    build_report,
    checks_for,
    report_json,
    run_checks,
)

EXIT_PASS = 0
EXIT_FAIL = 1
EXIT_USAGE = 2
EXIT_OFFSHELL = 3

# a config file may set any RunConfig field, plus the report path
CONFIG_KEYS = frozenset(f.name for f in dataclasses.fields(RunConfig)) | {"report"}


def _parse_tol(items):
    """Parse --tol entries: either a bare float (applies to every check) or
    check-id=value overrides, whose ids ``run_checks`` validates."""
    overrides = {}
    global_tol = None
    for item in items or []:
        if "=" in item:
            key, _, val = item.partition("=")
            overrides[key.strip()] = _tol_value(val)
        else:
            global_tol = _tol_value(item)
    return global_tol, overrides


def _tol_value(text):
    try:
        return float(text)
    except ValueError:
        raise ValueError(f"--tol expects a number, got '{text}'") from None


def _load_config_file(path):
    with open(path) as fh:
        data = json.load(fh)
    if not isinstance(data, dict):
        raise ValueError("config file must hold a JSON object")
    unknown = set(data) - CONFIG_KEYS
    if unknown:
        raise ValueError(f"config file has unknown keys: {', '.join(sorted(unknown))}")
    return data


def _build_config(args):
    """RunConfig from its own defaults, overridden by the config file, in turn
    overridden by the flags.  A check's tolerance comes from the first source
    that gives one: a per-check --tol, a bare --tol, the file, the check."""
    base = _load_config_file(args.config) if args.config else {}
    flags = {"suites": args.suite, "scenarios": args.scenario,
             "spacetimes": args.spacetime, "points": args.points,
             "seed": args.seed, "jet_order": args.jet_order}
    given = {}
    for f in dataclasses.fields(RunConfig):
        value = flags.get(f.name)
        if value is None:
            value = base.get(f.name)
        if value is not None:
            given[f.name] = tuple(value) if isinstance(value, list) else value
    cfg = RunConfig(**given)

    global_tol, overrides = _parse_tol(args.tol)
    if isinstance(cfg.tolerances, dict):
        bare = {} if global_tol is None else dict.fromkeys(CHECKS, global_tol)
        cfg.tolerances = {**cfg.tolerances, **bare, **overrides}
    report_path = args.report if args.report is not None else base.get("report")
    if not isinstance(report_path, (str, type(None))):
        raise ValueError("report must be a file path")
    return cfg, report_path


def cmd_verify(args):
    try:
        cfg, report_path = _build_config(args)
    except (ValueError, OSError, json.JSONDecodeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE

    quiet = args.quiet
    t_start = time.perf_counter()

    def emit(outcome, tol):
        if quiet:
            return
        ok = outcome.passed(tol)
        word = "PASS" if ok else "FAIL"
        op = "<=" if outcome.check.mode == "below" else ">="
        print(f"[{word}] {outcome.check.id:36s} {outcome.value:.3e} {op} {tol:.1e} "
              f"({outcome.points} pts, {outcome.elapsed:.2f}s)")
        if not ok:
            for t in outcome.targets:
                print(f"       {t.name}: max_abs={t.value_abs:.3e} "
                      f"max_rel={t.value_rel:.3e}")

    try:
        outcomes = run_checks(cfg, emit=emit)
    except (OffShellError, CatalogClaimError) as exc:
        print(f"on-shell gate: {exc}", file=sys.stderr)
        return EXIT_OFFSHELL
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except JetOrderError as exc:
        print(f"error: --jet-order {cfg.jet_order} is too low for the selected "
              f"checks ({exc})", file=sys.stderr)
        return EXIT_USAGE
    except MemoryError as exc:
        detail = f": {exc}" if str(exc) else ""
        print(f"error: the run cannot allocate its arrays{detail}", file=sys.stderr)
        return EXIT_USAGE

    report = build_report(cfg, outcomes)
    text = report_json(report)
    if report_path:
        try:
            with open(report_path, "w") as fh:
                fh.write(text)
        except OSError as exc:
            print(f"error: cannot write report: {exc}", file=sys.stderr)
            return EXIT_USAGE
    elif quiet:
        sys.stdout.write(text)

    wall = time.perf_counter() - t_start
    summary = report["summary"]
    if not quiet:
        print(f"{summary['passed']} passed, {summary['failed']} failed "
              f"in {wall:.1f}s")
        if report_path:
            print(f"report written to {report_path}")
    return EXIT_PASS if summary["failed"] == 0 else EXIT_FAIL


def cmd_list(args):
    print("suites:")
    for suite in SUITE_ORDER:
        ids = [c.id for c in checks_for([suite])]
        print(f"  {suite} ({len(ids)} checks)")
        for cid in ids:
            print(f"    {cid}")
    print("spacetimes:")
    for name, st in SPACETIMES.items():
        print(f"  {name} (n={st.n}, {len(st.killing)} symmetry vectors)")
    print("scenarios:")
    for name, sc in SCENARIOS.items():
        shell = "on-shell" if sc.on_shell else "off-shell"
        print(f"  {name} [{sc.theory.name} on {sc.spacetime}, {shell}]")
    return EXIT_PASS


def cmd_explain(args):
    check = CHECKS.get(args.check)
    if check is None:
        print(f"error: unknown check '{args.check}'", file=sys.stderr)
        print("known checks:", file=sys.stderr)
        for cid in CHECKS:
            print(f"  {cid}", file=sys.stderr)
        return EXIT_USAGE
    op = "<=" if check.mode == "below" else ">="
    print(f"check:     {check.id}")
    print(f"suite:     {check.suite}")
    print(f"identity:  {check.identity}")
    print(f"formula:   {check.formula}")
    print(f"passes if: max {check.measure} residual {op} {check.tolerance:.1e}")
    print(f"jet order: {check.jet_order}")
    print()
    print(check.description)
    return EXIT_PASS


def main(argv=None):
    parser = argparse.ArgumentParser(
        prog="emtkit",
        description="numerical verification of tensor-calculus and "
                    "energy-momentum identities on concrete spacetimes",
    )
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    p_verify = sub.add_parser("verify", help="run verification suites")
    p_verify.add_argument("--suite", action="append",
                          help="suite to run (repeatable; default: all)")
    p_verify.add_argument("--scenario", action="append",
                          help="restrict checks to these field scenarios")
    p_verify.add_argument("--spacetime", action="append",
                          help="restrict geometric checks to these spacetimes")
    p_verify.add_argument("--points", type=int, default=None,
                          help="sample points per target (default 16)")
    p_verify.add_argument("--seed", type=int, default=None,
                          help="seed for points and random fields (default 7)")
    p_verify.add_argument("--jet-order", type=int, default=None, dest="jet_order",
                          help="highest jet order a selected check may run at; "
                               "each check runs at its own declared order "
                               "(default 3)")
    p_verify.add_argument("--tol", action="append", metavar="[CHECK=]VALUE",
                          help="tolerance override, global or per check")
    p_verify.add_argument("--report", default=None,
                          help="write the JSON report to this path")
    p_verify.add_argument("--config", default=None,
                          help="JSON config file; command line flags win")
    p_verify.add_argument("--quiet", action="store_true",
                          help="suppress progress lines; print the report to "
                               "stdout when no --report is given")
    p_verify.set_defaults(func=cmd_verify)

    p_list = sub.add_parser("list", help="list suites, checks, spacetimes, scenarios")
    p_list.set_defaults(func=cmd_list)

    p_explain = sub.add_parser("explain", help="describe one check in detail")
    p_explain.add_argument("check", help="check id, as shown by list")
    p_explain.set_defaults(func=cmd_explain)

    args = parser.parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
