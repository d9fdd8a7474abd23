"""``sweep_report.json`` (the :data:`SWEEP_REPORT` schema).

One report captures a whole sweep run: the spec identity (name,
evaluator, axes as canonical value keys, fingerprint), the memo's hits
and misses, the wall time and one entry per canonical point holding its
key and the JSON row its evaluator makes of its value.  Rows and keys
are built here, not by the engine, so a sweep whose caller wants only
the values (the Table 5 search) never builds them.  The wall time is
machine noise and never compared across runs; everything else is a
pure function of the spec.  Every report carries a ``provenance`` block
(:func:`repro.obs.schema.provenance`, with the spec fingerprint as its
``config_fingerprint``).
"""

from __future__ import annotations

from typing import Any, Dict, Set

from repro.obs import schema
from repro.obs.schema import COUNT, NON_NEGATIVE, PROVENANCE, Fail, Schema, fields
from repro.sweep.engine import SweepOutcome
from repro.sweep.evaluators import get_evaluator

__all__ = ["SWEEP_REPORT", "build_sweep_report"]

_STRING: Dict[str, Any] = {"type": "string"}
_OBJECT: Dict[str, Any] = {"type": "object"}


def _unique_indices(report: Dict[str, Any], fail: Fail) -> None:
    seen: Set[int] = set()
    for position, entry in enumerate(report["points"]):
        if entry["index"] in seen:
            fail(f"points[{position}].index", f"{entry['index']} is duplicated")
        seen.add(entry["index"])


SWEEP_REPORT = Schema(
    "repro.sweep/v2",
    {
        "title": "repro.sweep run report",
        "type": "object",
        "required": [
            "provenance",
            "sweep",
            "evaluator",
            "fingerprint",
            "axes",
            "memo",
            "wall_seconds",
            "points",
        ],
        "properties": {
            "provenance": PROVENANCE,
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
            "memo": fields(COUNT, "hits", "misses"),
            "wall_seconds": NON_NEGATIVE,
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


def build_sweep_report(outcome: SweepOutcome) -> Dict[str, Any]:
    """Assemble the validated :data:`SWEEP_REPORT` for a finished run."""
    spec = outcome.spec
    identity = spec.identity()
    row = get_evaluator(spec.evaluator).row
    report = {
        "schema": SWEEP_REPORT.id,
        "provenance": schema.provenance(config_fingerprint=spec.fingerprint()),
        "sweep": spec.name,
        "evaluator": spec.evaluator,
        "fingerprint": spec.fingerprint(),
        "axes": identity["axes"],
        "memo": {"hits": outcome.memo_hits, "misses": outcome.memo_misses},
        "wall_seconds": outcome.wall_seconds,
        "points": [
            {
                "index": index,
                "key": spec.point_key(point),
                "row": row(outcome.values[index], point),
            }
            for index, point in spec.points()
        ],
    }
    schema.validate(report, SWEEP_REPORT)
    return report
