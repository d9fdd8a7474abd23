"""Trace and metrics exporters.

Three output formats, all fed from one :class:`~repro.obs.tracer.Tracer`:

* **Chrome trace-event JSON** (:func:`to_chrome_trace`) — loadable in
  Perfetto (ui.perfetto.dev) or ``chrome://tracing``; every span becomes a
  complete ("X") event whose ``args`` carry its exclusive ops/traffic.
* **Flat text profile** (:func:`render_flat_profile`) — spans aggregated
  by name in the :meth:`repro.perf.ledger.CostLedger.render` style.
* **``run_report.json``** (:func:`build_run_report`) — a stable
  machine-readable summary (the :data:`RUN_REPORT` schema) suitable for
  committed bench baselines and mechanical run-to-run diffing.
  Every report carries a ``provenance`` block (git SHA, python/numpy
  versions, argv — see :func:`repro.obs.schema.provenance`) and an
  optional ``resources`` block (peak RSS, allocation peak, CPU seconds).
"""

from __future__ import annotations

import json
from typing import Any, Dict, List, Optional

from repro.obs.schema import COUNT, NON_NEGATIVE, PROVENANCE, Schema, fields
from repro.obs.schema import provenance as build_provenance
from repro.perf.events import CostReport, MemTraffic, OpCount

#: Field names of the serialized :class:`OpCount` / :class:`MemTraffic`.
OPS_KEYS = ("mults", "adds", "total")
TRAFFIC_KEYS = ("ct_read", "ct_write", "key_read", "pt_read", "total")


def compute_span_paths(names_and_depths) -> List[str]:
    """Stable hierarchical paths for a pre-order ``(name, depth)`` sequence.

    A span's path is its ancestors' names joined with ``/``; repeated
    same-name siblings are disambiguated with a ``#<k>`` suffix (second
    occurrence gets ``#2``), so the path of every span is unique and —
    as long as span *labels* stay constant across runs — identical from
    run to run.  This is the alignment key :mod:`repro.obs.diff` uses.
    """
    paths: List[str] = []
    path_stack: List[str] = []
    # counts_stack[d] counts name occurrences among depth-d siblings of
    # the currently open depth-(d-1) span.
    counts_stack: List[Dict[str, int]] = [{}]
    for name, depth in names_and_depths:
        if depth < 0 or depth > len(path_stack):
            raise ValueError(
                f"span {name!r} at depth {depth} does not follow its parent "
                f"(open depth {len(path_stack)})"
            )
        del path_stack[depth:]
        del counts_stack[depth + 1:]
        counts = counts_stack[depth]
        occurrence = counts.get(name, 0)
        counts[name] = occurrence + 1
        label = name if occurrence == 0 else f"{name}#{occurrence + 1}"
        path = f"{path_stack[-1]}/{label}" if path_stack else label
        paths.append(path)
        path_stack.append(path)
        counts_stack.append({})
    return paths


RUN_REPORT = Schema(
    "repro.obs.run_report/v1.1",
    {
        "title": "repro.obs run report",
        "type": "object",
        "required": [
            "command",
            "wall_seconds",
            "totals",
            "spans",
            "metrics",
            "provenance",
        ],
        "properties": {
            "provenance": PROVENANCE,
            "resources": {
                "type": ["object", "null"],
                "properties": {
                    "peak_rss_bytes": COUNT,
                    "alloc_peak_bytes": COUNT,
                    "alloc_current_bytes": COUNT,
                    "wall_seconds": NON_NEGATIVE,
                    "cpu_seconds": NON_NEGATIVE,
                    "gc_collections": COUNT,
                },
            },
            "command": {"type": "string"},
            "workload": {"type": "string"},
            "params": {"type": ["string", "null"]},
            "config": {"type": ["object", "null"]},
            "wall_seconds": NON_NEGATIVE,
            "totals": {
                "type": "object",
                "required": ["ops", "traffic", "arithmetic_intensity"],
                "properties": {
                    "ops": fields(COUNT, *OPS_KEYS),
                    "traffic": fields(COUNT, *TRAFFIC_KEYS),
                    "arithmetic_intensity": {"type": "number"},
                },
            },
            "spans": {
                "type": "array",
                "items": {
                    "type": "object",
                    "required": ["name", "path", "depth", "start_us", "duration_us"],
                    "properties": {
                        "name": {"type": "string"},
                        "path": {"type": "string"},
                        "depth": COUNT,
                        "start_us": NON_NEGATIVE,
                        "duration_us": NON_NEGATIVE,
                        "ops": {"type": ["object", "null"]},
                        "traffic": {"type": ["object", "null"]},
                        "meta": {"type": "object"},
                    },
                },
            },
            "metrics": fields({"type": "object"}, "counters", "gauges", "histograms"),
            "runtime": {"type": ["object", "null"]},
        },
    },
)


# ----------------------------------------------------------------------
# Cost serialization helpers
# ----------------------------------------------------------------------
def ops_dict(ops: OpCount) -> Dict[str, int]:
    return {key: getattr(ops, key) for key in OPS_KEYS}


def traffic_dict(traffic: MemTraffic) -> Dict[str, int]:
    return {key: getattr(traffic, key) for key in TRAFFIC_KEYS}


def cost_dict(cost: CostReport) -> Dict[str, Any]:
    return {
        "ops": ops_dict(cost.ops),
        "traffic": traffic_dict(cost.traffic),
        "arithmetic_intensity": cost.arithmetic_intensity,
    }


def _json_safe(value: Any) -> Any:
    """Coerce span metadata to JSON-serializable values.

    Dict entries are emitted in sorted key order so the rendered report
    never depends on dict construction order (callers assemble config
    and metadata dicts along different code paths).
    """
    if isinstance(value, dict):
        items = sorted(value.items(), key=lambda kv: str(kv[0]))
        return {str(k): _json_safe(v) for k, v in items}
    if isinstance(value, (list, tuple)):
        return [_json_safe(v) for v in value]
    if value is None or isinstance(value, (bool, int, float, str)):
        return value
    return repr(value)


# ----------------------------------------------------------------------
# Chrome trace-event export
# ----------------------------------------------------------------------
def to_chrome_trace(
    tracer, metadata: Optional[Dict[str, Any]] = None
) -> Dict[str, Any]:
    """Render a tracer's span forest as a Chrome trace-event document."""
    spans = list(tracer.spans())
    origin = min((s.start for s in spans), default=0.0)
    events: List[Dict[str, Any]] = [
        {
            "ph": "M",
            "pid": 1,
            "tid": 1,
            "name": "process_name",
            "args": {"name": "repro"},
        }
    ]
    for span in spans:
        args: Dict[str, Any] = _json_safe(span.meta)
        if span.cost is not None:
            args["ops"] = span.cost.ops.total
            args["bytes"] = span.cost.traffic.total
            args["cost"] = cost_dict(span.cost)
        events.append(
            {
                "ph": "X",
                "pid": 1,
                "tid": 1,
                "name": span.name,
                "cat": "repro",
                "ts": max(0.0, (span.start - origin) * 1e6),
                "dur": max(0.0, span.duration * 1e6),
                "args": args,
            }
        )
    return {
        "traceEvents": events,
        "displayTimeUnit": "ms",
        "otherData": _json_safe(metadata or {}),
    }


def write_chrome_trace(
    tracer, path: str, metadata: Optional[Dict[str, Any]] = None
) -> None:
    with open(path, "w") as handle:
        json.dump(to_chrome_trace(tracer, metadata), handle, indent=1)


# ----------------------------------------------------------------------
# Flat text profile
# ----------------------------------------------------------------------
def render_flat_profile(tracer) -> str:
    """Spans aggregated by name, CostLedger.render style.

    Wall time sums each span's own (inclusive) duration; Gops/GB/AI come
    from *exclusive* costs so the column totals match the model exactly.
    """
    aggregated: Dict[str, Dict[str, Any]] = {}
    for span in tracer.spans():
        row = aggregated.setdefault(
            span.name, {"calls": 0, "seconds": 0.0, "cost": None}
        )
        row["calls"] += 1
        row["seconds"] += span.duration
        if span.cost is not None:
            row["cost"] = (
                span.cost if row["cost"] is None else row["cost"] + span.cost
            )
    total = tracer.total_cost()
    total = total if total is not None else CostReport()

    header = (
        f"{'Span':28} {'Calls':>6} {'Wall ms':>9} {'Gops':>9} {'GB':>8} "
        f"{'AI':>6} {'Ops%':>7} {'GB%':>7}"
    )
    lines = [header, "-" * len(header)]
    for name, row in aggregated.items():
        label = name if len(name) <= 28 else name[:27] + "…"
        cost = row["cost"]
        if cost is None:
            lines.append(
                f"{label:28} {row['calls']:6d} {row['seconds'] * 1e3:9.3f} "
                f"{'-':>9} {'-':>8} {'-':>6} {'-':>7} {'-':>7}"
            )
            continue
        ops_share = (
            cost.ops.total / total.ops.total if total.ops.total else 0.0
        )
        traffic_share = (
            cost.traffic.total / total.traffic.total
            if total.traffic.total
            else 0.0
        )
        lines.append(
            f"{label:28} {row['calls']:6d} {row['seconds'] * 1e3:9.3f} "
            f"{cost.giga_ops():9.2f} {cost.gigabytes():8.2f} "
            f"{cost.arithmetic_intensity:6.2f} {ops_share:7.1%} "
            f"{traffic_share:7.1%}"
        )
    lines.append("-" * len(header))
    wall = sum(root.duration for root in tracer.roots)
    lines.append(
        f"{'Total':28} {len(aggregated):6d} {wall * 1e3:9.3f} "
        f"{total.giga_ops():9.2f} {total.gigabytes():8.2f} "
        f"{total.arithmetic_intensity:6.2f} {1.0 if total.ops.total else 0.0:7.1%} "
        f"{1.0 if total.traffic.total else 0.0:7.1%}"
    )
    return "\n".join(lines)


# ----------------------------------------------------------------------
# Roofline attribution
# ----------------------------------------------------------------------
def attribute_runtime(tracer, design) -> Optional[Dict[str, Any]]:
    """Annotate every costed span with its roofline estimate on ``design``.

    Each span gets ``design`` / ``compute_seconds`` / ``memory_seconds`` /
    ``roofline_seconds`` / ``bound`` metadata computed from its *inclusive*
    cost.  Returns the same block for the whole trace (a run report's
    ``runtime``), or None if no span recorded a cost.
    """
    from repro.hardware.runtime import estimate_runtime

    def block(cost) -> Dict[str, Any]:
        estimate = estimate_runtime(cost, design)
        return {
            "design": design.name,
            "compute_seconds": estimate.compute_seconds,
            "memory_seconds": estimate.memory_seconds,
            "roofline_seconds": estimate.seconds,
            "bound": estimate.bound,
        }

    for span in tracer.spans():
        cost = span.total_cost()
        if cost is not None:
            span.annotate(**block(cost))
    overall = tracer.total_cost()
    return block(overall) if overall is not None else None


# ----------------------------------------------------------------------
# run_report.json
# ----------------------------------------------------------------------
def build_run_report(
    tracer,
    registry=None,
    command: str = "",
    workload: str = "",
    params: Optional[str] = None,
    config: Optional[Dict[str, Any]] = None,
    runtime: Optional[Dict[str, Any]] = None,
    provenance: Optional[Dict[str, Any]] = None,
    resources: Optional[Dict[str, Any]] = None,
) -> Dict[str, Any]:
    """Assemble the stable machine-readable summary of one traced run.

    ``provenance`` defaults to the current process's block
    (:func:`repro.obs.schema.provenance`) so every emitted report is
    attributable to a commit; pass an explicit block to override.
    ``resources`` is the optional host-resource summary
    (:func:`repro.obs.profiler.run_resource_summary`).
    """
    spans_out: List[Dict[str, Any]] = []
    spans = list(tracer.spans())
    origin = min((s.start for s in spans), default=0.0)
    paths = compute_span_paths((s.name, s.depth) for s in spans)
    for span, path in zip(spans, paths):
        spans_out.append(
            {
                "name": span.name,
                "path": path,
                "depth": span.depth,
                "start_us": max(0.0, (span.start - origin) * 1e6),
                "duration_us": max(0.0, span.duration * 1e6),
                "ops": ops_dict(span.cost.ops) if span.cost is not None else None,
                "traffic": (
                    traffic_dict(span.cost.traffic)
                    if span.cost is not None
                    else None
                ),
                "meta": _json_safe(span.meta),
            }
        )
    total = tracer.total_cost()
    total = total if total is not None else CostReport()
    ai = total.arithmetic_intensity
    return {
        "schema": RUN_REPORT.id,
        "command": command,
        "workload": workload,
        "params": params,
        "config": _json_safe(config) if config is not None else None,
        "wall_seconds": sum(root.duration for root in tracer.roots),
        "totals": {
            "ops": ops_dict(total.ops),
            "traffic": traffic_dict(total.traffic),
            # inf is not valid JSON; an all-compute run reports AI = -1.
            "arithmetic_intensity": ai if ai != float("inf") else -1.0,
        },
        "spans": spans_out,
        "metrics": (
            registry.snapshot()
            if registry is not None
            else {"counters": {}, "gauges": {}, "histograms": {}}
        ),
        "runtime": _json_safe(runtime) if runtime is not None else None,
        "provenance": _json_safe(
            build_provenance() if provenance is None else provenance
        ),
        "resources": _json_safe(resources) if resources is not None else None,
    }
