"""Domain rules enforcing the reproduction's accounting invariants.

Importing this package registers every rule with
:mod:`repro.lint.registry`:

* :class:`~repro.lint.rules.ledger.LedgerDiscipline` — cost-field
  arithmetic stays inside the ledger core (Fig. 2 / Fig. 3 trust).
* :class:`~repro.lint.rules.spans.SpanLabelStability` — span labels are
  static; volatile values go in span attrs (PR-2 diff alignment).
* :class:`~repro.lint.rules.exact.ExactArithPurity` — no floats in the
  exact modular-arithmetic paths (``numth/``, ``ring/``).
* :class:`~repro.lint.rules.units.UnitsHygiene` — byte- and op-valued
  expressions never cross-assigned or added.
* :class:`~repro.lint.rules.config.ConfigFlagCoverage` — every
  ``MADConfig`` flag is read by the performance model.
* :class:`~repro.lint.rules.tracing.TraceDiscipline` — memsim trace
  events are emitted only via ``TraceRecorder``, and simulated byte
  counters accumulate only in ``memsim/accounting.py``.
* :class:`~repro.lint.rules.telemetry.TelemetryDiscipline` — host
  resource sampling stays in ``obs/profiler.py``.
* :class:`~repro.lint.rules.schema.SchemaIdLiteral` — a ``repro.*/v*``
  schema id is spelled only inside its ``Schema(...)`` declaration.
"""

from repro.lint.rules.config import ConfigFlagCoverage
from repro.lint.rules.exact import ExactArithPurity
from repro.lint.rules.ledger import LedgerDiscipline
from repro.lint.rules.schema import SchemaIdLiteral
from repro.lint.rules.spans import SpanLabelStability
from repro.lint.rules.telemetry import TelemetryDiscipline
from repro.lint.rules.tracing import TraceDiscipline
from repro.lint.rules.units import UnitsHygiene

__all__ = [
    "ConfigFlagCoverage",
    "ExactArithPurity",
    "LedgerDiscipline",
    "SchemaIdLiteral",
    "SpanLabelStability",
    "TelemetryDiscipline",
    "TraceDiscipline",
    "UnitsHygiene",
]
