"""TraceDiscipline: memsim traces and counters stay behind their APIs.

The differential validation in :mod:`repro.memsim.validate` is only as
trustworthy as the traces it replays.  Two invariants keep it honest:

* **Events come from the recorder.**  ``TraceRecorder`` is the one
  sanctioned emitter of trace events: it owns block identity (buffer
  allocation), validates streams and bounds, and counts what it emits
  into the metrics registry.  A schedule generator that constructs
  ``Access``/``BulkAccess``/``PinEvent``/``FlushEvent`` objects by hand
  bypasses all of that — a typo'd stream name or out-of-range block id
  would silently skew the simulated DRAM totals the validator compares
  against the analytical model.  Direct construction is therefore
  allowed only in ``memsim/trace.py``, where the types are defined.

* **Byte counters live in the accounting module.**  Simulated per-stream
  DRAM bytes accumulate in exactly one place,
  ``memsim/accounting.py`` (:class:`~repro.memsim.accounting.DramCounters`),
  mirroring how :class:`~repro.lint.rules.ledger.LedgerDiscipline`
  confines analytical cost arithmetic to the ledger core.  Any
  ``*_bytes += ...`` elsewhere under ``memsim/`` is a shadow total the
  differential comparison never sees.
"""

from __future__ import annotations

import ast
from typing import Iterable, List, Optional

from repro.lint.core import FileContext, Finding, Rule
from repro.lint.registry import register
from repro.lint.scopes import (
    MEMSIM_ACCOUNTING_HOME,
    MEMSIM_TRACE_HOME,
)

__all__ = ["TraceDiscipline"]

#: Trace event types that must be emitted via TraceRecorder.
EVENT_TYPES = frozenset({"Access", "BulkAccess", "PinEvent", "FlushEvent"})



def _called_name(func: ast.AST) -> Optional[str]:
    """The terminal identifier of a call target (``Access``/``m.Access``)."""
    if isinstance(func, ast.Name):
        return func.id
    if isinstance(func, ast.Attribute):
        return func.attr
    return None


@register
class TraceDiscipline(Rule):
    name = "TraceDiscipline"
    description = (
        "memsim trace events are emitted only via TraceRecorder (no direct "
        "Access/BulkAccess/PinEvent/FlushEvent construction outside "
        "memsim/trace.py) and *_bytes accumulation under memsim/ stays in "
        "memsim/accounting.py"
    )
    node_types = (ast.Call, ast.AugAssign)

    def visit(
        self, node: ast.AST, ctx: FileContext
    ) -> Optional[Iterable[Finding]]:
        if isinstance(node, ast.Call):
            return self._visit_call(node, ctx)
        assert isinstance(node, ast.AugAssign)
        return self._visit_augassign(node, ctx)

    def _visit_call(
        self, node: ast.Call, ctx: FileContext
    ) -> Optional[List[Finding]]:
        if ctx.is_file(MEMSIM_TRACE_HOME):
            return None
        name = _called_name(node.func)
        if name not in EVENT_TYPES:
            return None
        return [
            self.finding(
                ctx,
                node,
                f"constructs trace event `{name}(...)` directly — emit "
                "events through the TraceRecorder API (read/write/scratch/"
                "pin/flush) so block identity, stream names and bounds stay "
                "validated",
            )
        ]

    def _visit_augassign(
        self, node: ast.AugAssign, ctx: FileContext
    ) -> Optional[List[Finding]]:
        if not ctx.in_dir("memsim") or ctx.is_file(MEMSIM_ACCOUNTING_HOME):
            return None
        target = node.target
        if isinstance(target, ast.Attribute):
            name = target.attr
        elif isinstance(target, ast.Name):
            name = target.id
        else:
            return None
        if not name.endswith("_bytes"):
            return None
        return [
            self.finding(
                ctx,
                node,
                f"accumulates `{name}` outside memsim/accounting.py — "
                "simulated DRAM bytes must flow through DramCounters so the "
                "differential validator sees every byte",
            )
        ]
