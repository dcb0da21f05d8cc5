"""The emtkit benchmark: repeated ``emtkit verify`` runs of one workload.

    python3 perfbench/run.py --workload NAME [--seed 7] [--seconds 40] [--trace 0|1]

Run from the root of a source checkout.  A closed loop with one client: each
sample is one ``verify`` in a fresh interpreter (``child.py``), started only
after the previous one ended, until ``--seconds`` of measuring are used up.
Every report passes the correctness gate of ``gate.py`` and, within one
invocation, all reports of the workload are byte-identical.

``--trace 0`` prints the end-to-end metrics.  ``--trace 1`` alternates plain
and traced samples and prints the per-layer metrics; the traced samples'
spans are written under ``perfbench/out``.  The last line of standard output
is one JSON object with the keys ``correct``, ``attempted``, ``failed`` and
``metrics``.  The exit code is 0 when every sample passed the gate, 1 when
one did not, and 2, with no result printed, when there is no program to
measure.
"""

from __future__ import annotations

import argparse
import itertools
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

from gate import check_report, headroom_decades
from workloads import DEFAULT_SEED, END_TO_END, PER_LAYER, WORKLOADS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"

# set-up-only children started before the verify samples, so that setup_s
# is a median of several even when only a few verify samples fit
SETUP_SAMPLES = 5
# a run must end within 180 s whatever the children do
RUN_LIMIT_S = 170.0
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "BLIS_NUM_THREADS")


def child_env() -> dict:
    env = dict(os.environ)
    threads = str(len(os.sched_getaffinity(0)))
    for var in THREAD_VARS:
        env[var] = threads
    paths = [str(ROOT / "src")]
    if env.get("PYTHONPATH"):
        paths.append(env["PYTHONPATH"])
    env["PYTHONPATH"] = os.pathsep.join(paths)
    env["PYTHONHASHSEED"] = "0"
    return env


class Sampler:
    """Starts children one at a time and keeps what they report."""

    def __init__(self, workload, seed: int):
        self.workload = workload
        self.seed = seed
        self.env = child_env()
        self.t_start = time.perf_counter()
        self.samples = []       # verify children, plain and traced
        self.setups = []        # setup_s of every child that got that far
        self.children = 0

    def run(self, kind: str) -> float:
        """Start one child of ``kind`` (plain, traced or setup); return
        how long it took."""
        run_id = f"{self.workload.name}-s{self.seed}-{self.children}"
        self.children += 1
        cmd = [sys.executable, str(HERE / "child.py"), "--workload", self.workload.name,
               "--seed", str(self.seed), "--out", str(OUT), "--run-id", run_id]
        if kind == "setup":
            cmd.append("--setup-only")
        elif kind == "traced":
            cmd.append("--trace")
        left = RUN_LIMIT_S - (time.perf_counter() - self.t_start)
        t0 = time.perf_counter()
        try:
            proc = subprocess.run(cmd, cwd=ROOT, env=self.env, capture_output=True,
                                  text=True, timeout=max(left, 1.0))
            lines = proc.stdout.strip().splitlines()
            result = json.loads(lines[-1]) if proc.returncode == 0 and lines else None
            error = proc.stderr.strip().splitlines()[-1:] if result is None else []
        except subprocess.TimeoutExpired:
            result, error = None, ["timed out"]
        took = time.perf_counter() - t0
        if result is not None:
            self.setups.append(result["setup_s"])
        if kind != "setup":
            self.samples.append({"kind": kind, "run_id": run_id, "took_s": took,
                                 "result": result, "error": error})
        return took


def judge(workload, samples) -> tuple:
    """Gate every sample; return (attempted, failed, reasons)."""
    expected = workload.check_ids
    attempted = failed = 0
    reasons = []
    digests = set()
    for sample in samples:
        attempted += len(expected)
        res = sample["result"]
        if res is None or res["exit_code"] != 0 or res["report"] is None:
            why = sample["error"] or [f"exit code {res and res['exit_code']}"]
            reasons.append(f"{sample['run_id']}: run failed: {' '.join(why)}")
            failed += len(expected)
            continue
        bad, problems = check_report(res["report"], expected)
        failed += len(bad)
        reasons.extend(f"{sample['run_id']}: {p}" for p in problems)
        digests.add(res["report_sha256"])
    if len(digests) > 1:
        reasons.append(f"reports differ between runs at one seed: {sorted(digests)}")
    return attempted, failed, reasons


def _median(values):
    return statistics.median(values) if values else None


def end_to_end(sampler, pass_ratio: float) -> dict:
    ok = [s["result"] for s in sampler.samples if s["result"] is not None]
    points = [sum(row["points"] for row in r["report"]["checks"]) / r["wall_s"]
              for r in ok if r["report"]]
    return {
        "wall_s": _median([r["wall_s"] for r in ok]),
        "cpu_s": _median([r["cpu_s"] for r in ok]),
        "points_per_s": _median(points),
        "setup_s": _median(sampler.setups),
        "peak_rss_mb": _median([r["peak_rss_mb"] for r in ok]),
        "pass_ratio": pass_ratio,
        "headroom_decades": min((headroom_decades(r["report"]["checks"])
                                 for r in ok if r["report"]), default=None),
    }


def per_layer(sampler) -> dict:
    traced = [s["result"] for s in sampler.samples
              if s["kind"] == "traced" and s["result"] is not None]
    plain = [s["result"]["wall_s"] for s in sampler.samples
             if s["kind"] == "plain" and s["result"] is not None]
    out = {}
    for name, _ in PER_LAYER:
        out[name] = _median([r["layers"].get(name, 0.0) for r in traced])
    if traced and plain:
        out["trace.overhead_s"] = (statistics.median(r["wall_s"] for r in traced)
                                   - statistics.median(plain))
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=40.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "emtkit" / "cli.py").is_file():
        print(f"error: no emtkit sources under {ROOT / 'src'}; run from a "
              "source checkout", file=sys.stderr)
        return 2
    OUT.mkdir(exist_ok=True)
    workload = WORKLOADS[args.workload]
    sampler = Sampler(workload, args.seed)

    if not args.trace:
        for _ in range(SETUP_SAMPLES):
            sampler.run("setup")
    kinds = ("plain", "traced") if args.trace else ("plain",)
    deadline = sampler.t_start + args.seconds
    took = {}
    for k in itertools.count():
        kind = kinds[k % len(kinds)]
        took.setdefault(kind, []).append(sampler.run(kind))
        following = kinds[(k + 1) % len(kinds)]
        expected = statistics.median(took.get(following, took[kind]))
        if k + 1 >= len(kinds) and time.perf_counter() + expected > deadline:
            break

    attempted, failed, reasons = judge(workload, sampler.samples)
    metrics = (per_layer(sampler) if args.trace
               else end_to_end(sampler, (attempted - failed) / attempted))
    units = dict(PER_LAYER if args.trace else END_TO_END)
    digests = sorted({s["result"]["report_sha256"] for s in sampler.samples
                      if s["result"] is not None})
    correct = not reasons

    results = {
        "workload": workload.name, "seed": args.seed, "trace": args.trace,
        "report_sha256": digests, "samples": [
            {k: v for k, v in s.items() if k != "result"}
            | {k: v for k, v in (s["result"] or {}).items() if k not in ("report", "layers")}
            for s in sampler.samples],
        "setup_s": sampler.setups, "reasons": reasons, "metrics": metrics,
    }
    (OUT / f"results-{workload.name}-s{args.seed}-t{args.trace}.json").write_text(
        json.dumps(results, indent=2) + "\n")

    print(f"workload {workload.name}  seed {args.seed}  trace {args.trace}  "
          f"samples {len(sampler.samples)}  set-ups {len(sampler.setups)}")
    print(f"report sha256 {' '.join(digests) or '-'}")
    for reason in reasons:
        print(f"FAIL {reason}")
    for name, value in metrics.items():
        shown = "-" if value is None else f"{value:.6g}"
        print(f"  {name:48s} {shown:>14s} {units[name]}")
    print(json.dumps({
        "correct": correct, "attempted": attempted, "failed": failed,
        "metrics": {name: {"value": value, "unit": units[name]}
                    for name, value in metrics.items()},
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
