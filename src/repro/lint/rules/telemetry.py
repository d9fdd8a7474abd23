"""TelemetryDiscipline: host resource sampling stays in one file.

``obs/profiler.py`` is the single place in ``src/`` that reads
``resource.getrusage``, ``tracemalloc``, ``gc.get_stats`` /
``gc.get_count``, ``time.process_time`` or ``psutil``.  Resource samples
carry platform quirks (``ru_maxrss`` units differ between Linux and
macOS) and real overhead (a tracemalloc peak read costs microseconds);
keeping every sampling site in one module means the overhead budget and
the normalisation rules are reviewable in one place — and that
:func:`repro.obs.telemetry.strip_volatile` knows every field it must
strip before determinism comparisons.
"""

from __future__ import annotations

import ast
from typing import Iterable, Optional

from repro.lint.core import FileContext, Finding, Rule
from repro.lint.registry import register
from repro.lint.scopes import PROFILER_HOME

__all__ = ["TelemetryDiscipline"]


#: Modules whose *any* attribute call is a resource-sampling site.
_SAMPLING_MODULES = frozenset({"resource", "tracemalloc", "psutil"})

#: ``module.attr`` pairs that sample when the module match alone is too
#: broad (``gc`` and ``time`` have plenty of legitimate other uses).
_SAMPLING_CALLS = frozenset(
    {
        ("gc", "get_stats"),
        ("gc", "get_count"),
        ("time", "process_time"),
        ("time", "process_time_ns"),
    }
)


@register
class TelemetryDiscipline(Rule):
    name = "TelemetryDiscipline"
    description = (
        "host resource sampling (resource/tracemalloc/psutil, gc.get_stats, "
        "time.process_time) happens only in obs/profiler.py"
    )
    node_types = (ast.Call,)

    def visit(
        self, node: ast.AST, ctx: FileContext
    ) -> Optional[Iterable[Finding]]:
        assert isinstance(node, ast.Call)
        if ctx.is_file(PROFILER_HOME):
            return None
        func = node.func
        if not (
            isinstance(func, ast.Attribute) and isinstance(func.value, ast.Name)
        ):
            return None
        module, attr = func.value.id, func.attr
        if module in _SAMPLING_MODULES:
            culprit = f"{module}.{attr}"
        elif (module, attr) in _SAMPLING_CALLS:
            culprit = f"{module}.{attr}"
        else:
            return None
        return [
            self.finding(
                ctx,
                node,
                f"samples host resources via `{culprit}(...)` outside "
                "obs/profiler.py — route through repro.obs.profiler "
                "(rss_peak_bytes / process_cpu_seconds / ResourceMeter / "
                "profiled_span) so units, overhead and volatile-field "
                "stripping stay centralised",
            )
        ]
