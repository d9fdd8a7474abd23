"""SimClockDiscipline: the serving simulator runs on virtual time only.

The whole value of :mod:`repro.serve` is that a run is a pure function
of ``(scenario, fleet, seed)``: request timestamps, latency percentiles
and SLA verdicts come off a discrete-event heap, so the same seed gives
a byte-identical ``serve_report.json`` on any machine at any speed.
One ``time.time()`` (or ``perf_counter``, or ``datetime.now``) inside
the package quietly breaks that contract — a latency computed from the
host clock looks plausible in review and only diverges under load or
across machines, the worst kind of reproducibility bug.

The rule is deliberately blunt: *importing* ``time`` or ``datetime``
anywhere under ``serve/`` is a finding, whatever the import is used
for.  There is no legitimate wall-clock consumer in the package —
simulated timestamps come from the event heap, entropy comes from the
seeded streams in ``serve/arrivals.py``, and host-resource telemetry
belongs to ``obs/profiler.py`` (TelemetryDiscipline).  Code that needs
a real clock belongs outside the simulator, and a clock value may reach
a report only under a field :func:`repro.obs.telemetry.strip_volatile`
removes: ``tests/test_determinism.py`` runs every report producer four
times and fails on any other difference.
"""

from __future__ import annotations

import ast
from typing import Iterable, List, Optional

from repro.lint.core import FileContext, Finding, Rule
from repro.lint.registry import register
from repro.lint.scopes import SERVE_HOME

__all__ = ["SimClockDiscipline"]

#: Module roots whose import into serve/ is a wall-clock leak.
_CLOCK_MODULES = frozenset({"time", "datetime"})


def _root(name: str) -> str:
    return name.split(".", 1)[0]


@register
class SimClockDiscipline(Rule):
    name = "SimClockDiscipline"
    description = (
        "serve/ runs on the virtual event-heap clock only: importing "
        "time or datetime there leaks wall-clock into seed-deterministic "
        "serving reports"
    )
    node_types = (ast.Import, ast.ImportFrom)

    def visit(
        self, node: ast.AST, ctx: FileContext
    ) -> Optional[Iterable[Finding]]:
        assert isinstance(node, (ast.Import, ast.ImportFrom))
        if not ctx.in_dir(SERVE_HOME):
            return None
        findings: List[Finding] = []
        if isinstance(node, ast.Import):
            offending = [
                alias.name
                for alias in node.names
                if _root(alias.name) in _CLOCK_MODULES
            ]
        else:
            module = node.module or ""
            offending = [module] if _root(module) in _CLOCK_MODULES else []
        for name in offending:
            findings.append(
                self.finding(
                    ctx,
                    node,
                    f"imports wall-clock module `{name}` inside serve/ — "
                    "the serving simulator is virtual-time only; simulated "
                    "timestamps come off the event heap and host clocks "
                    "break seed determinism",
                )
            )
        return findings
