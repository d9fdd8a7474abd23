"""The sweep engine: one in-process pass over the grid, one memo.

``run_sweep`` evaluates every point of a :class:`~repro.sweep.spec
.SweepSpec` in **canonical axis order** — the order a serial nested
``for`` loop over the axes would produce — against a single
:class:`~repro.sweep.memo.Memo` for the whole run.  Every evaluator is a
pure function of ``(point, context)`` and memoization only
short-circuits repeated *pure* sub-evaluations, so the memo can change
how often the model runs but never a value.

**Telemetry.**  When the caller has tracing or metrics enabled, each
point runs inside a ``sweep:point`` span (with a host-resource sample
via :func:`repro.obs.profiler.profiled_span`) directly under the
``sweep:run`` span, and evaluator metrics land in the caller's
registry.  The span is picked once per run (:func:`point_span`), so an
untraced sweep opens the plain null span per point, with no wrapper.
Memoized computes are telemetry-suppressed (see
:mod:`repro.sweep.memo`), so the trace does not depend on which point
first met a cost shape.
"""

from __future__ import annotations

import time
from contextlib import nullcontext
from dataclasses import dataclass
from typing import Any, Callable, List

from repro.obs import state as obs
from repro.obs.profiler import alloc_tracing, profiled_span
from repro.sweep.evaluators import get_evaluator
from repro.sweep.memo import Memo
from repro.sweep.spec import SweepSpec

__all__ = ["SweepOutcome", "point_span", "run_sweep"]


@dataclass
class SweepOutcome:
    """Everything a sweep run produced, in canonical order.

    ``values[i]`` is the evaluator's (rich) result for canonical point
    ``i``; :func:`repro.sweep.report.build_sweep_report` turns them into
    report rows.
    """

    spec: SweepSpec
    values: List[Any]
    memo_hits: int = 0
    memo_misses: int = 0
    wall_seconds: float = 0.0

    @property
    def memo_hit_rate(self) -> float:
        total = self.memo_hits + self.memo_misses
        return self.memo_hits / total if total else 0.0


def point_span() -> Callable[..., Any]:
    """The span opener for each point: metered when tracing, else plain."""
    return profiled_span if obs.tracing_enabled() else obs.span


def run_sweep(spec: SweepSpec) -> SweepOutcome:
    """Evaluate every point of ``spec`` in canonical order."""
    evaluator = get_evaluator(spec.evaluator)
    span = point_span()
    memo = Memo()
    values: List[Any] = []
    started = time.perf_counter()
    with obs.span(
        "sweep:run", sweep=spec.name, evaluator=spec.evaluator, points=spec.size
    ):
        obs.count("sweep.points", spec.size)
        with alloc_tracing() if obs.tracing_enabled() else nullcontext():
            for index, point in spec.points():
                with span("sweep:point", index=index):
                    values.append(evaluator.fn(point, spec.context, memo))
    outcome = SweepOutcome(
        spec=spec,
        values=values,
        memo_hits=memo.hits,
        memo_misses=memo.misses,
        wall_seconds=time.perf_counter() - started,
    )
    obs.count("sweep.memo.hits", outcome.memo_hits)
    obs.count("sweep.memo.misses", outcome.memo_misses)
    obs.gauge("sweep.memo_hit_rate", outcome.memo_hit_rate)
    return outcome
