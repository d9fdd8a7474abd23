"""Differential cost attribution between two traced runs.

The paper's whole argument is a sequence of *deltas* — Figures 2/3 report
per-optimization DRAM-traffic reductions, Table 6 compares designs.  This
module turns two ``run_report.json`` documents (see
:func:`repro.obs.export.build_run_report`) into one ``cost_diff.json``:

* spans are aligned **by path** (names joined with ``/``, repeated
  siblings disambiguated with ``#k`` — :func:`~repro.obs.export
  .compute_span_paths`), with *rename tolerance*: unmatched siblings
  under an aligned parent are paired positionally and flagged
  ``renamed`` so a relabeled phase still diffs against its counterpart;
* every aligned pair carries the delta of its exclusive op counts and
  per-stream DRAM traffic (``ct_read`` / ``ct_write`` / ``key_read`` /
  ``pt_read``) plus arithmetic intensity, and spans present in only one
  run appear as ``added`` / ``removed`` with their full cost as delta;
* metric counters are diffed by name so cache-fit decisions and NTT
  invocation counts are attributable too;
* the result renders as a sorted attribution table
  (:func:`render_attribution_table`), a Chrome-trace overlay with both
  runs side by side (:func:`build_overlay_trace`), and a validated
  machine-readable document (the :data:`COST_DIFF` schema).

Wall-clock numbers ride along for context but never enter the
``identical`` verdict — the analytical cost model is exact integer
arithmetic, timing is not.
"""

from __future__ import annotations

from typing import Any, Dict, List, Optional, Tuple

from repro.obs import schema
from repro.obs.export import OPS_KEYS, RUN_REPORT, TRAFFIC_KEYS
from repro.obs.schema import Schema, fields

_STATUSES = ("matched", "renamed", "added", "removed")
_INTEGER: Dict[str, Any] = {"type": "integer"}
_SHARE: Dict[str, Any] = {"type": "number", "minimum": 0, "maximum": 1}

COST_DIFF = Schema(
    "repro.obs.cost_diff/v1",
    {
        "title": "repro.obs cost diff",
        "type": "object",
        "required": ["base", "other", "identical", "totals", "spans", "metrics"],
        "properties": {
            "base": {"$ref": "#/definitions/run_summary"},
            "other": {"$ref": "#/definitions/run_summary"},
            "identical": {"type": "boolean"},
            "totals": {
                "type": "object",
                "required": ["base", "other", "delta"],
                "properties": {
                    "base": {"type": "object"},
                    "other": {"type": "object"},
                    "delta": {
                        "type": "object",
                        "required": ["ops", "traffic", "arithmetic_intensity"],
                        "properties": {
                            "ops": fields(_INTEGER, *OPS_KEYS),
                            "traffic": fields(_INTEGER, *TRAFFIC_KEYS),
                        },
                    },
                },
            },
            "spans": {
                "type": "array",
                "items": {
                    "type": "object",
                    "required": [
                        "path", "status", "base_name", "other_name",
                        "ops", "traffic", "traffic_share", "duration_us",
                    ],
                    "properties": {
                        "path": {"type": "string"},
                        "status": {"enum": list(_STATUSES)},
                        "base_name": {"type": ["string", "null"]},
                        "other_name": {"type": ["string", "null"]},
                        "ops": fields(
                            fields(_INTEGER, *OPS_KEYS), "base", "other", "delta"
                        ),
                        "traffic": fields(
                            fields(_INTEGER, *TRAFFIC_KEYS), "base", "other", "delta"
                        ),
                        "arithmetic_intensity": {"type": "object"},
                        "traffic_share": _SHARE,
                        "duration_us": {"type": "object"},
                    },
                },
            },
            "metrics": {
                "type": "object",
                "required": ["counters"],
                "properties": {
                    "counters": {
                        "type": "object",
                        "additionalProperties": fields(
                            _INTEGER, "base", "other", "delta"
                        ),
                    },
                },
            },
        },
        "definitions": {
            "run_summary": {
                "type": "object",
                "required": ["command", "workload", "wall_seconds"],
                "properties": {
                    "command": {"type": "string"},
                    "workload": {"type": "string"},
                    "params": {"type": ["string", "null"]},
                    "config": {"type": ["object", "null"]},
                    "wall_seconds": {"type": "number"},
                },
            },
        },
    },
)

#: The Chrome-trace overlay; its id lives in the ``otherData`` block.
DIFF_OVERLAY = Schema(
    "repro.obs.diff_overlay/v1",
    {
        "title": "repro.obs cost diff overlay trace",
        "type": "object",
        "required": ["traceEvents", "otherData"],
        "properties": {
            "traceEvents": {"type": "array"},
            "otherData": {
                "type": "object",
                "required": ["identical"],
                "properties": {"identical": {"type": "boolean"}},
            },
        },
    },
    key=("otherData", "schema"),
)


class WorkloadMismatchError(ValueError):
    """Raised when two run reports describe different workloads."""


# ----------------------------------------------------------------------
# Report plumbing
# ----------------------------------------------------------------------
def _run_summary(report: Dict[str, Any]) -> Dict[str, Any]:
    return {
        "command": report.get("command", ""),
        "workload": report.get("workload", ""),
        "params": report.get("params"),
        "config": report.get("config"),
        "wall_seconds": report.get("wall_seconds", 0.0),
    }


def _block(span: Optional[Dict[str, Any]], field: str, keys) -> Dict[str, int]:
    """A span's ops/traffic block, zero-filled for container/absent spans."""
    block = (span or {}).get(field) or {}
    return {key: int(block.get(key, 0)) for key in keys}


def _ai(ops_total: int, traffic_total: int) -> float:
    """Arithmetic intensity with the run-report convention: ∞ → -1.0."""
    if traffic_total == 0:
        return -1.0 if ops_total else 0.0
    return ops_total / traffic_total


# ----------------------------------------------------------------------
# Span-forest alignment
# ----------------------------------------------------------------------
def _build_forest(spans: List[Dict[str, Any]]) -> List[Dict[str, Any]]:
    """Reconstruct the span tree from the flat pre-order report list."""
    roots: List[Dict[str, Any]] = []
    stack: List[Dict[str, Any]] = []
    for index, span in enumerate(spans):
        depth = span.get("depth", 0)
        if depth > len(stack):
            raise ValueError(
                f"spans[{index}] at depth {depth} does not follow its parent"
            )
        del stack[depth:]
        node = {"span": span, "children": []}
        (stack[-1]["children"] if stack else roots).append(node)
        stack.append(node)
    return roots


def _sibling_keys(nodes: List[Dict[str, Any]]) -> List[Tuple[str, int]]:
    """(name, occurrence) key per node — the per-parent alignment identity."""
    counts: Dict[str, int] = {}
    keys = []
    for node in nodes:
        name = node["span"]["name"]
        occurrence = counts.get(name, 0)
        counts[name] = occurrence + 1
        keys.append((name, occurrence))
    return keys


def _label(name: str, occurrence: int) -> str:
    return name if occurrence == 0 else f"{name}#{occurrence + 1}"


def _align_siblings(
    base_nodes: List[Dict[str, Any]],
    other_nodes: List[Dict[str, Any]],
    parent_path: str,
    rename_tolerance: bool,
    entries: List[Dict[str, Any]],
) -> None:
    """Align two sibling lists and recurse into aligned pairs."""
    base_keys = _sibling_keys(base_nodes)
    other_keys = _sibling_keys(other_nodes)
    other_by_key = dict(zip(other_keys, other_nodes))

    pairs: List[Tuple[Optional[dict], Optional[dict], Tuple[str, int], bool]] = []
    matched_other = set()
    unmatched_base: List[Tuple[dict, Tuple[str, int]]] = []
    for node, key in zip(base_nodes, base_keys):
        if key in other_by_key:
            pairs.append((node, other_by_key[key], key, False))
            matched_other.add(key)
        else:
            unmatched_base.append((node, key))
    unmatched_other = [
        (node, key)
        for node, key in zip(other_nodes, other_keys)
        if key not in matched_other
    ]

    if rename_tolerance:
        # Pair leftover siblings positionally: a span that merely changed
        # its label still occupies the same structural slot.
        paired = min(len(unmatched_base), len(unmatched_other))
        for i in range(paired):
            base_node, base_key = unmatched_base[i]
            other_node, _ = unmatched_other[i]
            pairs.append((base_node, other_node, base_key, True))
        unmatched_base = unmatched_base[paired:]
        unmatched_other = unmatched_other[paired:]

    for node, key in unmatched_base:
        pairs.append((node, None, key, False))
    for node, key in unmatched_other:
        pairs.append((None, node, key, False))

    for base_node, other_node, key, renamed in pairs:
        label = _label(*key)
        path = f"{parent_path}/{label}" if parent_path else label
        entries.append(_span_entry(path, base_node, other_node, renamed))
        _align_siblings(
            base_node["children"] if base_node else [],
            other_node["children"] if other_node else [],
            path,
            rename_tolerance,
            entries,
        )


def _span_entry(
    path: str,
    base_node: Optional[Dict[str, Any]],
    other_node: Optional[Dict[str, Any]],
    renamed: bool,
) -> Dict[str, Any]:
    base_span = base_node["span"] if base_node else None
    other_span = other_node["span"] if other_node else None
    if base_span is None:
        status = "added"
    elif other_span is None:
        status = "removed"
    else:
        status = "renamed" if renamed else "matched"

    base_ops = _block(base_span, "ops", OPS_KEYS)
    other_ops = _block(other_span, "ops", OPS_KEYS)
    base_traffic = _block(base_span, "traffic", TRAFFIC_KEYS)
    other_traffic = _block(other_span, "traffic", TRAFFIC_KEYS)
    base_us = float((base_span or {}).get("duration_us", 0.0))
    other_us = float((other_span or {}).get("duration_us", 0.0))
    return {
        "path": path,
        "status": status,
        "base_name": base_span["name"] if base_span else None,
        "other_name": other_span["name"] if other_span else None,
        "ops": {
            "base": base_ops,
            "other": other_ops,
            "delta": {k: other_ops[k] - base_ops[k] for k in OPS_KEYS},
        },
        "traffic": {
            "base": base_traffic,
            "other": other_traffic,
            "delta": {
                k: other_traffic[k] - base_traffic[k] for k in TRAFFIC_KEYS
            },
        },
        "arithmetic_intensity": {
            "base": _ai(base_ops["total"], base_traffic["total"]),
            "other": _ai(other_ops["total"], other_traffic["total"]),
        },
        "traffic_share": 0.0,  # filled in once all entries exist
        "duration_us": {
            "base": base_us,
            "other": other_us,
            "delta": other_us - base_us,
        },
    }


def _is_changed(entry: Dict[str, Any]) -> bool:
    if entry["status"] != "matched":
        return True
    return any(entry["ops"]["delta"].values()) or any(
        entry["traffic"]["delta"].values()
    )


# ----------------------------------------------------------------------
# The diff itself
# ----------------------------------------------------------------------
def diff_run_reports(
    base: Dict[str, Any],
    other: Dict[str, Any],
    *,
    rename_tolerance: bool = True,
    require_same_workload: bool = True,
) -> Dict[str, Any]:
    """Diff two run reports into a ``cost_diff.json`` document.

    Only *changed* spans appear in ``spans`` (sorted by traffic-delta
    magnitude, then ops delta, then path) — the diff of two identical
    runs is empty.  Raises :class:`WorkloadMismatchError` when the
    reports describe different workloads unless
    ``require_same_workload=False``.
    """
    schema.validate(base, RUN_REPORT)
    schema.validate(other, RUN_REPORT)
    base_workload = base.get("workload", "")
    other_workload = other.get("workload", "")
    if require_same_workload and base_workload != other_workload:
        raise WorkloadMismatchError(
            f"cannot diff different workloads: base ran {base_workload!r}, "
            f"other ran {other_workload!r} (use --force / "
            f"require_same_workload=False to diff anyway)"
        )

    entries: List[Dict[str, Any]] = []
    _align_siblings(
        _build_forest(base["spans"]),
        _build_forest(other["spans"]),
        "",
        rename_tolerance,
        entries,
    )
    entries = [entry for entry in entries if _is_changed(entry)]

    magnitude = sum(abs(e["traffic"]["delta"]["total"]) for e in entries)
    for entry in entries:
        entry["traffic_share"] = (
            abs(entry["traffic"]["delta"]["total"]) / magnitude
            if magnitude
            else 0.0
        )
    entries.sort(
        key=lambda e: (
            -abs(e["traffic"]["delta"]["total"]),
            -abs(e["ops"]["delta"]["total"]),
            e["path"],
        )
    )

    base_totals = base.get("totals", {})
    other_totals = other.get("totals", {})
    delta_ops = {
        k: _block(other_totals, "ops", OPS_KEYS)[k]
        - _block(base_totals, "ops", OPS_KEYS)[k]
        for k in OPS_KEYS
    }
    delta_traffic = {
        k: _block(other_totals, "traffic", TRAFFIC_KEYS)[k]
        - _block(base_totals, "traffic", TRAFFIC_KEYS)[k]
        for k in TRAFFIC_KEYS
    }

    base_counters = (base.get("metrics") or {}).get("counters") or {}
    other_counters = (other.get("metrics") or {}).get("counters") or {}
    counter_deltas = {
        name: {
            "base": int(base_counters.get(name, 0)),
            "other": int(other_counters.get(name, 0)),
            "delta": int(other_counters.get(name, 0))
            - int(base_counters.get(name, 0)),
        }
        for name in sorted(set(base_counters) | set(other_counters))
        if int(other_counters.get(name, 0)) != int(base_counters.get(name, 0))
    }

    identical = (
        not entries
        and not counter_deltas
        and not any(delta_ops.values())
        and not any(delta_traffic.values())
    )

    return {
        "schema": COST_DIFF.id,
        "base": _run_summary(base),
        "other": _run_summary(other),
        "identical": identical,
        "totals": {
            "base": base_totals,
            "other": other_totals,
            "delta": {
                "ops": delta_ops,
                "traffic": delta_traffic,
                "arithmetic_intensity": float(
                    other_totals.get("arithmetic_intensity", 0.0)
                )
                - float(base_totals.get("arithmetic_intensity", 0.0)),
                "wall_seconds": float(other.get("wall_seconds", 0.0))
                - float(base.get("wall_seconds", 0.0)),
            },
        },
        "spans": entries,
        "metrics": {"counters": counter_deltas},
    }


# ----------------------------------------------------------------------
# Rendering
# ----------------------------------------------------------------------
def _fmt_bytes(delta: int) -> str:
    sign = "+" if delta > 0 else "-" if delta < 0 else " "
    value = abs(delta)
    for unit, scale in (("GB", 1e9), ("MB", 1e6), ("kB", 1e3)):
        if value >= scale:
            return f"{sign}{value / scale:.2f} {unit}"
    return f"{sign}{value} B"


def _fmt_ops(delta: int) -> str:
    sign = "+" if delta > 0 else "-" if delta < 0 else " "
    value = abs(delta)
    for unit, scale in (("G", 1e9), ("M", 1e6), ("k", 1e3)):
        if value >= scale:
            return f"{sign}{value / scale:.2f}{unit}"
    return f"{sign}{value}"


def render_attribution_table(diff: Dict[str, Any], top: Optional[int] = 20) -> str:
    """Human-readable attribution: streams, spans (sorted), counters."""
    base, other = diff["base"], diff["other"]
    lines = [
        f"cost diff: {base['workload'] or base['command'] or 'base'}"
        f" (base) vs {other['workload'] or other['command'] or 'other'} (other)"
    ]
    if diff["identical"]:
        lines.append("runs are analytically identical — no cost deltas")
        return "\n".join(lines)

    totals = diff["totals"]
    lines.append("")
    header = f"{'Stream':10} {'base':>14} {'other':>14} {'delta':>12} {'rel':>8}"
    lines += [header, "-" * len(header)]
    base_traffic = _block(totals["base"], "traffic", TRAFFIC_KEYS)
    other_traffic = _block(totals["other"], "traffic", TRAFFIC_KEYS)
    for stream in TRAFFIC_KEYS:
        b, o = base_traffic[stream], other_traffic[stream]
        rel = f"{(o - b) / b:+.1%}" if b else ("n/a" if o else "0.0%")
        lines.append(
            f"{stream:10} {b:>14,} {o:>14,} {_fmt_bytes(o - b):>12} {rel:>8}"
        )
    delta_ops = totals["delta"]["ops"]["total"]
    lines.append(f"{'ops':10} {'':>14} {'':>14} {_fmt_ops(delta_ops):>12}")

    entries = diff["spans"]
    if entries:
        lines.append("")
        header = (
            f"{'Span path':44} {'Δbytes':>12} {'Δops':>10} "
            f"{'share':>7}  {'status':8}"
        )
        lines += [header, "-" * len(header)]
        shown = entries if top is None else entries[:top]
        for entry in shown:
            path = entry["path"]
            if len(path) > 44:
                path = "…" + path[-43:]
            lines.append(
                f"{path:44} {_fmt_bytes(entry['traffic']['delta']['total']):>12} "
                f"{_fmt_ops(entry['ops']['delta']['total']):>10} "
                f"{entry['traffic_share']:>7.1%}  {entry['status']:8}"
            )
        if top is not None and len(entries) > top:
            lines.append(f"… {len(entries) - top} more changed spans")

    counters = diff["metrics"]["counters"]
    if counters:
        lines.append("")
        header = f"{'Counter':44} {'base':>10} {'other':>10} {'delta':>8}"
        lines += [header, "-" * len(header)]
        for name, row in counters.items():
            label = name if len(name) <= 44 else "…" + name[-43:]
            lines.append(
                f"{label:44} {row['base']:>10} {row['other']:>10} "
                f"{row['delta']:>+8}"
            )
    return "\n".join(lines)


def build_overlay_trace(
    base: Dict[str, Any], other: Dict[str, Any], diff: Optional[Dict[str, Any]] = None
) -> Dict[str, Any]:
    """Chrome-trace overlay: base run on pid 1, other on pid 2.

    Aligned spans in the *other* process carry their cost delta in
    ``args.delta``, so hovering a span in Perfetto shows what changed.
    """
    if diff is None:
        diff = diff_run_reports(base, other, require_same_workload=False)
    delta_by_path = {entry["path"]: entry for entry in diff["spans"]}
    events: List[Dict[str, Any]] = []
    for pid, label, report in ((1, "base", base), (2, "other", other)):
        events.append(
            {
                "ph": "M",
                "pid": pid,
                "tid": 1,
                "name": "process_name",
                "args": {"name": f"{label}: {report.get('workload', '')}"},
            }
        )
        for span in report["spans"]:
            args: Dict[str, Any] = {"path": span["path"]}
            if span.get("ops"):
                args["ops"] = span["ops"]["total"]
            if span.get("traffic"):
                args["bytes"] = span["traffic"]["total"]
            entry = delta_by_path.get(span["path"])
            if pid == 2 and entry is not None:
                args["delta"] = {
                    "ops": entry["ops"]["delta"]["total"],
                    "bytes": entry["traffic"]["delta"]["total"],
                    "status": entry["status"],
                }
            events.append(
                {
                    "ph": "X",
                    "pid": pid,
                    "tid": 1,
                    "name": span["name"],
                    "cat": "repro-diff",
                    "ts": float(span.get("start_us", 0.0)),
                    "dur": float(span.get("duration_us", 0.0)),
                    "args": args,
                }
            )
    overlay = {
        "traceEvents": events,
        "displayTimeUnit": "ms",
        "otherData": {
            "schema": DIFF_OVERLAY.id,
            "identical": diff["identical"],
        },
    }
    schema.validate(overlay, DIFF_OVERLAY)
    return overlay
