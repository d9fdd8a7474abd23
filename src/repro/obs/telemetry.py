"""Cross-process telemetry: capture, merge and graft span/metric state.

The PR-1 observability layer is process-local: a ``--jobs N`` sweep used
to produce a ``sweep:run`` span with **no children**, because each
worker's spans and metrics died with the worker.  This module closes that
gap with three operations:

* :func:`capture_snapshot` — freeze a worker-local
  :class:`~repro.obs.tracer.Tracer` + :class:`~repro.obs.metrics
  .MetricsRegistry` into a picklable snapshot dict (the
  :data:`SNAPSHOT` schema).  Span costs stay as the frozen
  :class:`~repro.perf.events.CostReport` dataclasses — exact integers,
  no JSON round-trip.
* :func:`merge_snapshots` — fold snapshots **in canonical chunk order**:
  span forests concatenate, counters sum, histograms combine their
  streaming moments, gauges take the last write.  Because the parent
  always merges in canonical order (never completion order), the merged
  telemetry is bit-identical between ``--jobs N`` and serial — the same
  determinism bar the engine sets for sweep *results*.
* :func:`graft_snapshot` — rebuild a snapshot's span dicts as real
  :class:`~repro.obs.tracer.Span` children of the parent tracer's
  current span, rebasing worker-local clocks onto the parent clock so
  durations stay meaningful.

:func:`strip_volatile` is the comparison companion and the one
canonicaliser for every report family: it removes the fields that
legitimately differ between runs (wall-clock, resource samples,
provenance, scheduling and memo statistics) so tests and CI can assert
the remainder is bit-identical across ``--jobs``, repeated runs and
``PYTHONHASHSEED`` values.
"""

from __future__ import annotations

import copy
from typing import Any, Dict, Iterable, List, Mapping, Optional, Sequence

from repro.obs import schema
from repro.obs.metrics import MetricsRegistry
from repro.obs.schema import Schema, fields
from repro.obs.tracer import Span, Tracer

__all__ = [
    "SNAPSHOT",
    "VOLATILE_REPORT_KEYS",
    "capture_snapshot",
    "graft_snapshot",
    "merge_into_registry",
    "merge_snapshots",
    "strip_volatile",
]

#: Deliberately shallow: :func:`merge_snapshots` validates every chunk's
#: snapshot, and span costs stay :class:`~repro.perf.events.CostReport`
#: objects that JSON Schema cannot describe.
SNAPSHOT = Schema(
    "repro.obs.telemetry/v1",
    {
        "title": "repro.obs telemetry snapshot",
        "type": "object",
        "required": ["spans", "metrics"],
        "properties": {
            "spans": {"type": "array"},
            "metrics": fields({"type": "object"}, "counters", "gauges", "histograms"),
        },
    },
    key=("version",),
)

#: Top-level report keys whose values depend on the host, the clock or
#: the chunk schedule, in any report family (run, sweep, memsim, ...).
#: :func:`strip_volatile` drops them.
VOLATILE_REPORT_KEYS = (
    "provenance",
    "resources",
    "workers",
    "jobs",
    "chunks",
    "memo",
    "worker_utilisation",
    "busy_seconds",
    "reused",
)

#: Metric names whose values depend on scheduling (worker count, chunk
#: boundaries, which worker saw a memo key first) rather than on what was
#: computed.  Stripped before cross-``--jobs`` bit-identity comparisons.
VOLATILE_METRIC_PREFIXES = ("sweep.chunks.", "sweep.memo.")
VOLATILE_METRIC_NAMES = frozenset(
    {"sweep.jobs", "sweep.worker_utilisation", "sweep.memo_hit_rate"}
)

#: Span meta keys whose values are host measurements, not model output.
VOLATILE_META_KEYS = frozenset({"resource"})


# ----------------------------------------------------------------------
# Capture
# ----------------------------------------------------------------------
def _span_to_dict(span: Span, base: float) -> Dict[str, Any]:
    return {
        "name": span.name,
        "meta": dict(span.meta),
        "start": span.start - base,
        "end": (span.end - base) if span.end is not None else None,
        "cost": span.cost,
        "children": [_span_to_dict(child, base) for child in span.children],
    }


def capture_snapshot(tracer: Tracer, registry: MetricsRegistry) -> Dict[str, Any]:
    """Freeze a tracer + registry into a picklable snapshot dict.

    Span times are stored relative to the earliest root start, so the
    worker's absolute ``perf_counter`` origin (meaningless in another
    process) never leaves the worker.
    """
    roots = list(tracer.roots)
    base = min((span.start for span in roots), default=0.0)
    histograms: Dict[str, Dict[str, float]] = {}
    for name, hist in sorted(registry._histograms.items()):
        histograms[name] = {
            "count": hist.count,
            "total": hist.total,
            "min": hist.min,
            "max": hist.max,
        }
    return {
        "version": SNAPSHOT.id,
        "spans": [_span_to_dict(span, base) for span in roots],
        "metrics": {
            "counters": registry.counters(),
            "gauges": {
                name: gauge.value
                for name, gauge in sorted(registry._gauges.items())
            },
            "histograms": histograms,
        },
    }


# ----------------------------------------------------------------------
# Merge
# ----------------------------------------------------------------------
def _merge_histogram(
    into: Dict[str, float], other: Mapping[str, float]
) -> Dict[str, float]:
    if not other.get("count"):
        return into
    if not into.get("count"):
        return dict(other)
    return {
        "count": into["count"] + other["count"],
        "total": into["total"] + other["total"],
        "min": min(into["min"], other["min"]),
        "max": max(into["max"], other["max"]),
    }


def merge_snapshots(snapshots: Sequence[Mapping[str, Any]]) -> Dict[str, Any]:
    """Fold snapshots, **in the order given**, into one snapshot.

    The fold is associative, and because the caller supplies canonical
    chunk order the result is independent of which worker produced which
    snapshot or when it completed.  Counters and histogram moments sum;
    gauges are last-write-wins (matching :class:`Gauge` semantics);
    span forests concatenate.
    """
    counters: Dict[str, int] = {}
    gauges: Dict[str, float] = {}
    histograms: Dict[str, Dict[str, float]] = {}
    spans: List[Dict[str, Any]] = []
    for snapshot in snapshots:
        schema.validate(snapshot, SNAPSHOT)
        spans.extend(copy.deepcopy(snapshot["spans"]))
        metrics = snapshot["metrics"]
        for name, value in metrics["counters"].items():
            counters[name] = counters.get(name, 0) + value
        for name, value in metrics["gauges"].items():
            gauges[name] = value
        for name, moments in metrics["histograms"].items():
            histograms[name] = _merge_histogram(
                histograms.get(name, {"count": 0}), moments
            )
    return {
        "version": SNAPSHOT.id,
        "spans": spans,
        "metrics": {
            "counters": dict(sorted(counters.items())),
            "gauges": dict(sorted(gauges.items())),
            "histograms": dict(sorted(histograms.items())),
        },
    }


def merge_into_registry(
    snapshot: Mapping[str, Any], registry: MetricsRegistry
) -> None:
    """Fold a snapshot's metrics into a live registry."""
    schema.validate(snapshot, SNAPSHOT)
    metrics = snapshot["metrics"]
    for name, value in metrics["counters"].items():
        registry.counter(name).inc(value)
    for name, value in metrics["gauges"].items():
        registry.gauge(name).set(value)
    for name, moments in metrics["histograms"].items():
        hist = registry.histogram(name)
        if moments.get("count"):
            hist.count += int(moments["count"])
            hist.total += moments["total"]
            hist.min = min(hist.min, moments["min"])
            hist.max = max(hist.max, moments["max"])


# ----------------------------------------------------------------------
# Graft
# ----------------------------------------------------------------------
def _dict_to_span(
    node: Mapping[str, Any], parent: Optional[Span], base: float
) -> Span:
    span = Span(node["name"], parent, node["meta"], start=base + node["start"])
    span.end = None if node["end"] is None else base + node["end"]
    span.cost = node["cost"]
    span.children = [
        _dict_to_span(child, span, base) for child in node["children"]
    ]
    return span

def graft_snapshot(snapshot: Mapping[str, Any], tracer: Tracer) -> List[Span]:
    """Rebuild a snapshot's spans as children of the tracer's current span.

    Worker-relative times are rebased onto the parent tracer's clock at
    graft time, so durations survive and the graft point orders after
    everything the parent already recorded.  Returns the grafted root
    spans.
    """
    schema.validate(snapshot, SNAPSHOT)
    parent = tracer.current
    base = tracer._clock()
    grafted = [
        _dict_to_span(node, parent, base) for node in snapshot["spans"]
    ]
    target = parent.children if parent is not None else tracer.roots
    target.extend(grafted)
    return grafted


# ----------------------------------------------------------------------
# Volatile-field stripping (determinism comparisons)
# ----------------------------------------------------------------------
def _is_volatile_metric(name: str) -> bool:
    return name in VOLATILE_METRIC_NAMES or any(
        name.startswith(prefix) for prefix in VOLATILE_METRIC_PREFIXES
    )


def _strip_span_dict(span: Dict[str, Any]) -> None:
    span["start_us"] = 0
    span["duration_us"] = 0
    meta = span.get("meta")
    if isinstance(meta, dict):
        for key in VOLATILE_META_KEYS:
            meta.pop(key, None)
        if "jobs" in meta and span.get("name") == "sweep:run":
            meta["jobs"] = 0
    for child in span.get("children", ()):
        _strip_span_dict(child)


def _strip_metrics(metrics: Dict[str, Any]) -> None:
    for section in ("counters", "gauges", "histograms"):
        values = metrics.get(section)
        if isinstance(values, dict):
            for name in [n for n in values if _is_volatile_metric(n)]:
                del values[name]


def strip_volatile(report: Mapping[str, Any]) -> Dict[str, Any]:
    """A deep copy of a report with its volatile fields removed.

    Drops :data:`VOLATILE_REPORT_KEYS`, zeroes wall-clock (span times,
    ``wall_seconds``, ``runtime``) and removes span resource samples and
    metrics whose values depend on the chunk schedule
    (:data:`VOLATILE_METRIC_PREFIXES`, :data:`VOLATILE_METRIC_NAMES`).
    What remains — for a run report, the span tree with its exact
    analytical costs, the stable metrics and totals; for a sweep or
    memsim report, every result — must be bit-identical between
    ``--jobs N`` and serial runs, and between runs under different
    ``PYTHONHASHSEED`` values.
    """
    stripped: Dict[str, Any] = copy.deepcopy(dict(report))
    for key in VOLATILE_REPORT_KEYS:
        stripped.pop(key, None)
    if "wall_seconds" in stripped:
        stripped["wall_seconds"] = 0.0
    runtime = stripped.get("runtime")
    if isinstance(runtime, dict):
        runtime["wall_seconds"] = 0.0
        runtime.pop("cpu_seconds", None)
    for span in stripped.get("spans", ()):
        _strip_span_dict(span)
    metrics = stripped.get("metrics")
    if isinstance(metrics, dict):
        _strip_metrics(metrics)
    return stripped
