"""Span tracing for the per-layer breakdown of one in-process CLI run.

The tracer wraps public functions of ``bratsfuse`` modules at the names the
callers look them up under (``pipeline.load_labelmap``, ``fusion.region_mask``
and so on: a module binds an imported name when it is imported, so patching
the defining module alone would miss those calls). Each call records a span
with its name, start, end and parent, plus the tracemalloc peak above the
memory in use when the span opened. Counts (bytes read, STAPLE iterations,
EDT voxels, ...) are taken in the same wrappers.

Spans stay in memory until the run ends. A span's self time is its duration
minus the part of it covered by its child spans. Work the tracer itself does
after a call (counting voxels, sizing files) is recorded as a ``trace.count``
span, so it is charged to neither the call nor its caller.
"""

from __future__ import annotations

import os
import time
import tracemalloc
from collections import defaultdict
from contextlib import contextmanager
from dataclasses import dataclass, field

import numpy as np

MB = 1024.0 * 1024.0
COUNT_SPAN = "trace.count"


@dataclass
class Span:
    name: str
    start: float
    end: float = 0.0
    parent: int | None = None
    peak_bytes: int = 0


@dataclass
class _Frame:
    index: int
    base_bytes: int
    peak_bytes: int


@dataclass
class Tracer:
    spans: list[Span] = field(default_factory=list)
    counts: dict[str, float] = field(default_factory=lambda: defaultdict(float))
    _stack: list[_Frame] = field(default_factory=list)

    @contextmanager
    def span(self, name: str):
        current, peak = tracemalloc.get_traced_memory()
        if self._stack:
            self._stack[-1].peak_bytes = max(self._stack[-1].peak_bytes, peak)
        tracemalloc.reset_peak()
        parent = self._stack[-1].index if self._stack else None
        self.spans.append(Span(name, time.perf_counter(), parent=parent))
        frame = _Frame(len(self.spans) - 1, current, current)
        self._stack.append(frame)
        try:
            yield
        finally:
            end = time.perf_counter()
            _, peak = tracemalloc.get_traced_memory()
            self._stack.pop()
            frame.peak_bytes = max(frame.peak_bytes, peak)
            span = self.spans[frame.index]
            span.end = end
            span.peak_bytes = frame.peak_bytes - frame.base_bytes
            if self._stack:
                self._stack[-1].peak_bytes = max(self._stack[-1].peak_bytes, frame.peak_bytes)
            tracemalloc.reset_peak()

    def wrap(self, fn, name: str | None, count=None):
        """``fn`` recorded as span ``name`` (None: no span); ``count(args,
        result)`` runs after each call, inside a ``trace.count`` span."""

        def wrapper(*args, **kwargs):
            if name is None:
                result = fn(*args, **kwargs)
            else:
                with self.span(name):
                    result = fn(*args, **kwargs)
            if count is not None:
                with self.span(COUNT_SPAN):
                    count(self.counts, args, result)
            return result

        wrapper.__wrapped__ = fn
        return wrapper


def self_times(spans: list[Span]) -> list[float]:
    """Each span's duration minus the union of its children's intervals."""
    children = defaultdict(list)
    for s in spans:
        if s.parent is not None:
            children[s.parent].append(s)
    out = []
    for i, s in enumerate(spans):
        covered = 0.0
        cursor = s.start
        for c in sorted(children[i], key=lambda c: c.start):
            lo, hi = max(c.start, cursor), min(c.end, s.end)
            if hi > lo:
                covered += hi - lo
                cursor = hi
        out.append((s.end - s.start) - covered)
    return out


def summarize_spans(spans: list[Span]) -> dict[str, dict[str, float]]:
    """Per span name: calls, self seconds, total seconds and peak MB."""
    table: dict[str, dict[str, float]] = {}
    for s, self_s in zip(spans, self_times(spans)):
        row = table.setdefault(s.name, {"calls": 0, "self_s": 0.0, "total_s": 0.0, "peak_mb": 0.0})
        row["calls"] += 1
        row["self_s"] += self_s
        row["total_s"] += s.end - s.start
        row["peak_mb"] = max(row["peak_mb"], s.peak_bytes / MB)
    return table


def covered_time(spans: list[Span]) -> float:
    """Length of the union of the root spans' intervals."""
    covered, cursor = 0.0, float("-inf")
    for s in sorted((s for s in spans if s.parent is None), key=lambda s: s.start):
        lo = max(s.start, cursor)
        if s.end > lo:
            covered += s.end - lo
            cursor = s.end
    return covered


# -- what the benchmark traces ------------------------------------------------

def _count_read(counts, args, result):
    counts["nifti.read_bytes"] += os.path.getsize(args[0])


def _count_write(counts, args, result):
    counts["nifti.write_bytes"] += os.path.getsize(result)


def _count_staple(counts, args, result):
    counts["fusion.staple.iterations"] += result.iterations
    counts["fusion.staple.unconverged"] += not result.converged


def _count_relabel(counts, args, result):
    if np.any(args[0].data == 4) and not np.any(result.data == 4):
        counts["postprocess.relabeled_cases"] += 1


def _count_boundary(counts, args, result):
    counts["metrics.boundary.voxels"] += int(np.count_nonzero(result.data))


def _count_edt(counts, args, result):
    counts["metrics.edt.voxels"] += args[0].data.size


def targets(bf) -> list[tuple[object, str, str | None, object]]:
    """(module, attribute, span name, counter) for every traced call site.

    ``bf`` is a namespace holding the imported ``bratsfuse`` modules.
    """
    return [
        (bf.cli, "run_fuse", "pipeline.run_fuse", None),
        (bf.cli, "run_eval", "pipeline.run_eval", None),
        (bf.pipeline, "load_labelmap", "nifti.load_labelmap", _count_read),
        (bf.pipeline, "load_probmap", "nifti.load_probmap", None),
        (bf.nifti, "load_volume", None, _count_read),
        (bf.pipeline, "save_nifti", "nifti.save_nifti", _count_write),
        (bf.pipeline, "average_probs", "fusion.average_probs", None),
        (bf.pipeline, "argmax_labels", "fusion.argmax_labels", None),
        (bf.pipeline, "staple_multilabel_detailed", "fusion.staple_multilabel", None),
        (bf.fusion, "staple_binary", "fusion.staple_binary", _count_staple),
        (bf.fusion, "region_mask", "regions.region_mask", None),
        (bf.fusion, "recompose_labels", "regions.recompose_labels", None),
        (bf.pipeline, "et_threshold_relabel", "postprocess.et_threshold_relabel", _count_relabel),
        (bf.pipeline, "evaluate_case", "metrics.evaluate_case", None),
        (bf.metrics, "region_mask", "regions.region_mask", None),
        (bf.metrics, "dice", "metrics.dice", None),
        (bf.metrics, "hd95", "metrics.hd95", None),
        (bf.metrics, "boundary", "metrics.boundary", _count_boundary),
        (bf.metrics, "edt", "metrics.edt", _count_edt),
        (bf.pipeline, "write_summary_outputs", "pipeline.write_summary_outputs", None),
        (bf.pipeline, "summarize", "report.summarize", None),
    ]


@contextmanager
def patched(tracer: Tracer, bf):
    """Install the traced wrappers; restore the original functions after."""
    saved = []
    try:
        for module, attr, name, count in targets(bf):
            original = getattr(module, attr)
            saved.append((module, attr, original))
            setattr(module, attr, tracer.wrap(original, name, count))
        yield
    finally:
        for module, attr, original in reversed(saved):
            setattr(module, attr, original)


# Per-layer metrics: name -> (unit, better). Self time is ".s"/".self_s".
PER_LAYER = {
    "pipeline.run_fuse.self_s": ("s", "lower"),
    "pipeline.run_eval.self_s": ("s", "lower"),
    "pipeline.write_summary_outputs.s": ("s", "lower"),
    "report.summarize.s": ("s", "lower"),
    "nifti.load_probmap.s": ("s", "lower"),
    "nifti.load_probmap.peak_mb": ("MB", "lower"),
    "nifti.load_labelmap.s": ("s", "lower"),
    "nifti.save_nifti.s": ("s", "lower"),
    "nifti.read_mb": ("MB", "lower"),
    "nifti.write_mb": ("MB", "lower"),
    "fusion.average_probs.s": ("s", "lower"),
    "fusion.average_probs.peak_mb": ("MB", "lower"),
    "fusion.argmax_labels.s": ("s", "lower"),
    "fusion.staple_binary.s": ("s", "lower"),
    "fusion.staple_binary.peak_mb": ("MB", "lower"),
    "fusion.staple.iterations": ("count", "lower"),
    "fusion.staple.ms_per_iter": ("ms", "lower"),
    "fusion.staple.unconverged": ("count", "lower"),
    "regions.region_mask.s": ("s", "lower"),
    "regions.region_mask.calls": ("count", "lower"),
    "regions.recompose_labels.s": ("s", "lower"),
    "postprocess.et_threshold_relabel.s": ("s", "lower"),
    "postprocess.relabeled_cases": ("count", "lower"),
    "metrics.evaluate_case.s": ("s", "lower"),
    "metrics.dice.s": ("s", "lower"),
    "metrics.boundary.s": ("s", "lower"),
    "metrics.hd95.self_s": ("s", "lower"),
    "metrics.edt.s": ("s", "lower"),
    "metrics.edt.calls": ("count", "lower"),
    "metrics.edt.peak_mb": ("MB", "lower"),
    "metrics.edt.mvox": ("Mvox", "lower"),
    "metrics.edt.useful_frac": ("1", "higher"),
    "trace.unaccounted_frac": ("1", "lower"),
    "trace.overhead_frac": ("1", "lower"),
}


def layer_metrics(spans: list[Span], counts: dict[str, float], traced_wall: float,
                  untraced_wall: float) -> dict[str, float]:
    """Every PER_LAYER metric from the spans and counts of one traced run."""
    table = summarize_spans(spans)
    counts = defaultdict(float, counts)

    def row(name, key):
        return table.get(name, {}).get(key, 0.0)

    out = {}
    for name in PER_LAYER:
        span, _, stat = name.rpartition(".")
        if stat in ("s", "self_s"):
            out[name] = row(span, "self_s")
        elif stat == "peak_mb":
            out[name] = row(span, "peak_mb")
    iters = counts["fusion.staple.iterations"]
    edt_vox = counts["metrics.edt.voxels"]
    out.update({
        "nifti.read_mb": counts["nifti.read_bytes"] / MB,
        "nifti.write_mb": counts["nifti.write_bytes"] / MB,
        "fusion.staple.iterations": iters,
        "fusion.staple.ms_per_iter":
            1000.0 * row("fusion.staple_binary", "self_s") / iters if iters else 0.0,
        "fusion.staple.unconverged": counts["fusion.staple.unconverged"],
        "regions.region_mask.calls": row("regions.region_mask", "calls"),
        "postprocess.relabeled_cases": counts["postprocess.relabeled_cases"],
        "metrics.edt.calls": row("metrics.edt", "calls"),
        "metrics.edt.mvox": edt_vox / 1e6,
        "metrics.edt.useful_frac": counts["metrics.boundary.voxels"] / edt_vox if edt_vox else 0.0,
        "trace.unaccounted_frac": max(traced_wall - covered_time(spans), 0.0) / traced_wall,
        "trace.overhead_frac": traced_wall / untraced_wall - 1.0,
    })
    return {name: float(out[name]) for name in PER_LAYER}
