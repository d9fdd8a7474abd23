"""The one canonicaliser for report comparisons: :func:`strip_volatile`.

Every report family (run, sweep, memsim, cost diff, ...) carries a few
fields that legitimately differ between two runs of the same command:
the host and the clock (provenance, run-level resources, wall seconds,
span times and per-span resource samples).  :func:`strip_volatile`
removes exactly those, so tests can assert that the remainder — every
modelled cost, row, counter and memo statistic — is bit-identical
across repeated runs and ``PYTHONHASHSEED`` values
(``tests/test_determinism.py``).
"""

from __future__ import annotations

import copy
from typing import Any, Dict, Mapping

__all__ = ["VOLATILE_META_KEYS", "VOLATILE_REPORT_KEYS", "strip_volatile"]

#: Top-level report keys whose values depend on the host or the clock,
#: in any report family.  :func:`strip_volatile` drops them.
VOLATILE_REPORT_KEYS = ("provenance", "resources")

#: Span meta keys whose values are host measurements, not model output.
VOLATILE_META_KEYS = frozenset({"resource"})


def _strip_span_dict(span: Dict[str, Any]) -> None:
    span["start_us"] = 0
    span["duration_us"] = 0
    meta = span.get("meta")
    if isinstance(meta, dict):
        for key in VOLATILE_META_KEYS:
            meta.pop(key, None)
    for child in span.get("children", ()):
        _strip_span_dict(child)


def strip_volatile(report: Mapping[str, Any]) -> Dict[str, Any]:
    """A deep copy of a report with its host and clock fields removed.

    Drops :data:`VOLATILE_REPORT_KEYS`, zeroes wall-clock (span times,
    ``wall_seconds``, ``runtime``) and removes span resource samples
    (:data:`VOLATILE_META_KEYS`).  What remains — for a run report, the
    span tree with its exact analytical costs, the metrics and totals;
    for a sweep or memsim report, every result and the memo statistics —
    must be bit-identical between runs, and between runs under different
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
    return stripped
