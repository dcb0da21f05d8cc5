"""Span tracing of one ``emtkit verify`` call, from outside the library.

``Tracer`` wraps every public function of the emtkit modules in a span and
rebinds the wrapper wherever the original was bound: in its own module,
which calls itself through module globals, and in every module that copied
the name with ``from .x import y``.  It also wraps each registered check, so
that per-check spans parent the library spans, counts ``numpy.einsum`` and
``Jet.__init__`` calls, and counts hits of the run's frame and theory caches.
Spans stay in memory until the run ends.  ``uninstall`` puts every original
back.  Only traced runs import this module.
"""

from __future__ import annotations

import dataclasses
import functools
import gzip
import inspect
import math
import sys
import time
from collections import Counter, defaultdict

from workloads import LAYERS

# layers whose self time counts as explained inside suites.run_checks
COVERING_LAYERS = ("jets", "tensors", "geometry", "fieldtheory", "catalog")


class Tracer:
    """Records spans ``[name, start, end, parent index]`` and counters."""

    def __init__(self, run_id: str):
        self.run_id = run_id
        self.spans = []
        self.counts = Counter()
        self._stack = [-1]
        self._undo = []

    # -- wrapping ----------------------------------------------------------

    def span(self, name: str, fn):
        spans, stack, clock = self.spans, self._stack, time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            rec = [name, 0.0, 0.0, stack[-1]]
            stack.append(len(spans))
            spans.append(rec)
            rec[1] = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                rec[2] = clock()
                stack.pop()
        return traced

    def _set(self, owner, attr, value):
        self._undo.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def install(self):
        import numpy
        from emtkit import jets, suites

        modules = {name: sys.modules[f"emtkit.{name}"] for name in LAYERS}
        emtkit_modules = [m for key, m in sorted(sys.modules.items())
                          if key == "emtkit" or key.startswith("emtkit.")]
        for layer, module in modules.items():
            for attr, fn in sorted(vars(module).items()):
                if (attr.startswith("_") or not inspect.isfunction(fn)
                        or fn.__module__ != module.__name__):
                    continue
                wrapper = self.span(f"{layer}.{attr}", fn)
                if fn is jets.jet_einsum:
                    wrapper = self._batch_counter(wrapper)
                for m in emtkit_modules:
                    for name, value in list(vars(m).items()):
                        if value is fn:
                            self._set(m, name, wrapper)

        for cid, check in list(suites.CHECKS.items()):
            body = check.fn

            def run_check(ctx, _body=body):
                return list(_body(ctx))
            self._undo.append((suites.CHECKS, cid, check))
            suites.CHECKS[cid] = dataclasses.replace(
                check, fn=self.span(f"suites.check.{cid}", run_check))

        self._set(numpy, "einsum", self._counter("jets.np_einsum.calls", numpy.einsum))
        self._set(jets.Jet, "__init__",
                  self._counter("jets.Jet.constructions", jets.Jet.__init__))
        self._set(suites.RunContext, "frame",
                  self._cache_counter("suites.frame_cache", "_frames",
                                      suites.RunContext.frame))
        self._set(suites.RunContext, "theory_frame",
                  self._cache_counter("suites.theory_cache", "_theories",
                                      suites.RunContext.theory_frame))
        return self

    def uninstall(self):
        for owner, attr, old in reversed(self._undo):
            if isinstance(owner, dict):
                owner[attr] = old
            else:
                setattr(owner, attr, old)
        self._undo.clear()

    def __enter__(self):
        return self.install()

    def __exit__(self, *exc):
        self.uninstall()

    def _counter(self, key, fn):
        counts = self.counts

        @functools.wraps(fn)
        def counted(*args, **kwargs):
            counts[key] += 1
            return fn(*args, **kwargs)
        return counted

    def _batch_counter(self, fn):
        counts = self.counts

        @functools.wraps(fn)
        def counted(*args, **kwargs):
            out = fn(*args, **kwargs)
            table = out.data[0] if hasattr(out, "vdim") else out
            vdim = getattr(out, "vdim", 0)
            counts["jets.jet_einsum.batch_points_sum"] += math.prod(
                table.shape[:table.ndim - vdim])
            return out
        return counted

    def _cache_counter(self, key, store, method):
        counts = self.counts

        @functools.wraps(method)
        def counted(ctx, *args, **kwargs):
            before = len(getattr(ctx, store))
            out = method(ctx, *args, **kwargs)
            counts[f"{key}.calls"] += 1
            counts[f"{key}.hits"] += len(getattr(ctx, store)) == before
            return out
        return counted

    # -- output ------------------------------------------------------------

    def write(self, path):
        """Write the spans as tab-separated lines, gzip-compressed."""
        with gzip.open(path, "wt", compresslevel=1) as fh:
            fh.write("run_id\tname\tstart\tend\tparent\n")
            for name, start, end, parent in self.spans:
                fh.write(f"{self.run_id}\t{name}\t{start:.9f}\t{end:.9f}\t{parent}\n")


def self_times(spans) -> list:
    """Each span's duration minus the part of it that its children cover.

    ``spans`` is a list of ``(name, start, end, parent index)``; a parent
    index of -1 marks a root.  Overlapping children are merged first, and
    children are clipped to their parent's interval.
    """
    children = defaultdict(list)
    for _, start, end, parent in spans:
        if parent >= 0:
            children[parent].append((start, end))
    out = []
    for i, (_, start, end, _) in enumerate(spans):
        covered = 0.0
        run_lo = run_hi = None
        for lo, hi in sorted(children.get(i, ())):
            lo, hi = max(lo, start), min(hi, end)
            if hi <= lo:
                continue
            if run_hi is None or lo > run_hi:
                if run_hi is not None:
                    covered += run_hi - run_lo
                run_lo, run_hi = lo, hi
            else:
                run_hi = max(run_hi, hi)
        if run_hi is not None:
            covered += run_hi - run_lo
        out.append((end - start) - covered)
    return out


def summarize(spans, selfs) -> dict:
    """Per span name: ``calls``, ``self_s`` and ``incl_s``.

    ``selfs`` holds each span's self time.  ``incl_s`` sums only outermost
    spans of a name, so a function that reaches itself again is not counted
    twice.  Spans must be listed in the order they started, which puts every
    parent before its children.
    """
    stats = defaultdict(lambda: {"calls": 0, "self_s": 0.0, "incl_s": 0.0})
    chain, open_names = [], Counter()
    for i, (name, start, end, parent) in enumerate(spans):
        while chain and chain[-1] != parent:
            open_names[spans[chain.pop()][0]] -= 1
        entry = stats[name]
        entry["calls"] += 1
        entry["self_s"] += selfs[i]
        if not open_names[name]:
            entry["incl_s"] += end - start
        chain.append(i)
        open_names[name] += 1
    return dict(stats)


def _ratio(a, b):
    return a / b if b else 0.0


def layer_metrics(spans, counts) -> dict:
    """Per-layer figures of one traced verify, keyed by metric name.

    Every ``*_s`` figure also comes as a ``*_share`` of ``suites.run_checks``,
    which is what the benchmark reports for functions that some workload
    never reaches: there the time reads 0 on every run.
    """
    selfs = self_times(spans)
    stats = summarize(spans, selfs)
    out = {f"{name}.{key}": value
           for name, entry in stats.items() for key, value in entry.items()}
    layer_self = Counter()
    inside = [False] * len(spans)
    covered = 0.0
    for i, (name, _, _, parent) in enumerate(spans):
        layer = name.split(".", 1)[0]
        layer_self[layer] += selfs[i]
        inside[i] = name == "suites.run_checks" or (parent >= 0 and inside[parent])
        if inside[i] and layer in COVERING_LAYERS:
            covered += selfs[i]
    for layer in LAYERS:
        out[f"{layer}.self_s"] = layer_self[layer]

    def incl(name):
        return stats.get(name, {}).get("incl_s", 0.0)

    run_checks = incl("suites.run_checks")
    for key in [k for k in out if k.endswith("_s")]:
        out[key[:-2] + "_share"] = _ratio(out[key], run_checks)
    out["suites.run_checks.s"] = run_checks
    out["trace.layer_coverage"] = _ratio(covered, run_checks)
    out["cli.report_s"] = incl("suites.build_report") + incl("suites.report_json")
    out["cli.overhead_s"] = incl("cli.main") - run_checks

    einsum_calls = stats.get("jets.jet_einsum", {}).get("calls", 0)
    out["jets.np_einsum.calls"] = counts["jets.np_einsum.calls"]
    out["jets.Jet.constructions"] = counts["jets.Jet.constructions"]
    out["jets.np_einsum_per_jet_einsum"] = _ratio(counts["jets.np_einsum.calls"],
                                                  einsum_calls)
    out["jets.jet_einsum.batch_points"] = _ratio(
        counts["jets.jet_einsum.batch_points_sum"], einsum_calls)
    out["catalog.random_fields.calls"] = stats.get(
        "catalog.random_tensor_field", {}).get("calls", 0)
    for cache in ("suites.frame_cache", "suites.theory_cache"):
        out[f"{cache}.hit_ratio"] = _ratio(counts[f"{cache}.hits"],
                                           counts[f"{cache}.calls"])
    return out
