"""``sweep_report.json`` (the :data:`SWEEP_REPORT` schema).

One report captures a whole sweep run: the spec identity (name,
evaluator, axes as canonical value keys, fingerprint), dispatch
statistics (jobs, chunks, memo hit rate, worker utilisation, wall
seconds — all report-only, never gated) and one entry per canonical
point holding its JSON row.  The fingerprint makes reports *resumable*:
``run_sweep(spec, resume=report)`` reuses every completed point of a
report whose fingerprint matches the spec and evaluates only the rest.

Wall-clock fields are machine noise and must never be compared across
machines; the analytical rows are exact and bit-identical for any
``--jobs``.  Every report carries a ``provenance`` block
(:func:`repro.obs.schema.provenance`, with the spec fingerprint as its
``config_fingerprint``) and a ``workers`` array summarising each
evaluating process (pid, chunks, busy and CPU seconds, peak RSS).

:data:`SWEEP_SPEEDUP` is the report-only parallel-speedup record that
``benchmarks/record_sweep_speedup.py`` writes.
"""

from __future__ import annotations

from typing import Any, Dict, Set

from repro.obs import schema
from repro.obs.schema import COUNT, NON_NEGATIVE, PROVENANCE, Fail, Schema, fields
from repro.sweep.engine import SweepOutcome

__all__ = ["SWEEP_REPORT", "SWEEP_SPEEDUP", "build_sweep_report"]

_STRING: Dict[str, Any] = {"type": "string"}
_OBJECT: Dict[str, Any] = {"type": "object"}


def _unique_indices(report: Dict[str, Any], fail: Fail) -> None:
    seen: Set[int] = set()
    for position, entry in enumerate(report["points"]):
        if entry["index"] in seen:
            fail(f"points[{position}].index", f"{entry['index']} is duplicated")
        seen.add(entry["index"])


SWEEP_REPORT = Schema(
    "repro.sweep/v1.1",
    {
        "title": "repro.sweep run report",
        "type": "object",
        "required": [
            "provenance",
            "sweep",
            "evaluator",
            "fingerprint",
            "axes",
            "jobs",
            "chunks",
            "reused",
            "memo",
            "wall_seconds",
            "worker_utilisation",
            "complete",
            "points",
        ],
        "properties": {
            "provenance": PROVENANCE,
            "workers": {
                "type": "array",
                "items": {
                    "type": "object",
                    "required": ["pid", "chunks"],
                    "properties": {
                        "pid": COUNT,
                        "chunks": COUNT,
                        "busy_seconds": NON_NEGATIVE,
                        "cpu_seconds": NON_NEGATIVE,
                        "peak_rss_bytes": COUNT,
                    },
                },
            },
            "sweep": _STRING,
            "evaluator": _STRING,
            "fingerprint": {"type": "string", "pattern": "^[0-9a-f]{64}$"},
            "axes": {
                "type": "array",
                "items": {
                    "type": "object",
                    "required": ["name", "values"],
                    "properties": {"name": _STRING, "values": {"type": "array"}},
                },
            },
            "jobs": {"type": "integer", "minimum": 1},
            "chunks": COUNT,
            "reused": COUNT,
            "memo": fields(COUNT, "hits", "misses"),
            "wall_seconds": NON_NEGATIVE,
            "worker_utilisation": {"type": "number", "minimum": 0, "maximum": 1},
            "complete": {"type": "boolean"},
            "points": {
                "type": "array",
                "items": {
                    "type": "object",
                    "required": ["index", "key", "row"],
                    "properties": {"index": COUNT, "key": _OBJECT, "row": _OBJECT},
                },
            },
        },
    },
    check=_unique_indices,
)

SWEEP_SPEEDUP = Schema(
    "repro.sweep_speedup/v1",
    {
        "title": "repro.sweep parallel speedup record (report-only)",
        "type": "object",
        "required": [
            "sweep",
            "points",
            "quick",
            "jobs",
            "cpu_cores",
            "serial_seconds",
            "parallel_seconds",
            "speedup",
            "bit_identical",
        ],
        "properties": {
            "sweep": _STRING,
            "points": COUNT,
            "quick": {"type": "boolean"},
            "jobs": {"type": "integer", "minimum": 1},
            "cpu_cores": {"type": ["integer", "null"], "minimum": 1},
            "serial_seconds": NON_NEGATIVE,
            "parallel_seconds": NON_NEGATIVE,
            "speedup": NON_NEGATIVE,
            "bit_identical": {"type": "boolean", "const": True},
            "note": _STRING,
        },
    },
)


def build_sweep_report(outcome: SweepOutcome) -> Dict[str, Any]:
    """Assemble the validated :data:`SWEEP_REPORT` for a finished run."""
    spec = outcome.spec
    identity = spec.identity()
    report = {
        "schema": SWEEP_REPORT.id,
        "provenance": schema.provenance(config_fingerprint=spec.fingerprint()),
        "workers": outcome.workers,
        "sweep": spec.name,
        "evaluator": spec.evaluator,
        "fingerprint": spec.fingerprint(),
        "axes": identity["axes"],
        "jobs": outcome.jobs,
        "chunks": outcome.chunks,
        "reused": outcome.reused,
        "memo": {"hits": outcome.memo_hits, "misses": outcome.memo_misses},
        "wall_seconds": outcome.wall_seconds,
        "worker_utilisation": outcome.worker_utilisation,
        "complete": True,
        "points": [
            {
                "index": index,
                "key": outcome.point_keys[index],
                "row": outcome.rows[index],
            }
            for index in range(spec.size)
        ],
    }
    schema.validate(report, SWEEP_REPORT)
    return report
