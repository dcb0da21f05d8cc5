"""One measurement in a fresh interpreter; started by ``run.py``.

    python3 perfbench/child.py --workload NAME --seed N --out DIR --run-id ID
                               [--setup-only] [--trace]

Times the set-up every ``verify`` pays (importing ``emtkit.cli`` and
checking the claims of every spacetime at the seed), then, unless
``--setup-only``, one ``verify`` of the workload through
``emtkit.cli.main``.  Prints one JSON object as its last line.  ``emtkit``
must be importable (``run.py`` puts ``src`` on ``PYTHONPATH``).
"""

from __future__ import annotations

import argparse
import hashlib
import json
import resource
import sys
import time
from pathlib import Path


def _cpu_seconds() -> float:
    ru = resource.getrusage(resource.RUSAGE_SELF)
    return ru.ru_utime + ru.ru_stime


def setup(seed: int) -> float:
    """Import the CLI and check every spacetime's claims; return seconds."""
    t0 = time.perf_counter()
    import emtkit.cli  # noqa: F401  (registers the checks)
    from emtkit.catalog import SPACETIMES, verify_spacetime_claims
    for st in SPACETIMES.values():
        verify_spacetime_claims(st, seed=seed)
    return time.perf_counter() - t0


def verify(config: Path, seed: int, report: Path) -> dict:
    """Run one ``emtkit verify``; return its exit code, times and report."""
    from emtkit import cli
    argv = ["verify", "--config", str(config), "--seed", str(seed),
            "--quiet", "--report", str(report)]
    cpu0, wall0 = _cpu_seconds(), time.perf_counter()
    code = cli.main(argv)
    wall = time.perf_counter() - wall0
    cpu = _cpu_seconds() - cpu0
    data = report.read_bytes() if report.exists() else b""
    return {
        "exit_code": code,
        "wall_s": wall,
        "cpu_s": cpu,
        "report_sha256": hashlib.sha256(data).hexdigest(),
        "report": json.loads(data) if data else None,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--out", type=Path, required=True)
    parser.add_argument("--run-id", required=True)
    parser.add_argument("--setup-only", action="store_true")
    parser.add_argument("--trace", action="store_true")
    args = parser.parse_args(argv)

    from workloads import WORKLOADS
    workload = WORKLOADS[args.workload]

    result = {"setup_s": setup(args.seed)}
    if not args.setup_only:
        report = args.out / f"{args.run_id}.report.json"
        report.unlink(missing_ok=True)
        if args.trace:
            from tracing import Tracer, layer_metrics
            with Tracer(args.run_id) as tracer:
                result.update(verify(workload.config, args.seed, report))
            tracer.write(args.out / f"{args.run_id}.spans.tsv.gz")
            result["layers"] = layer_metrics(tracer.spans, tracer.counts)
        else:
            result.update(verify(workload.config, args.seed, report))
        result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
