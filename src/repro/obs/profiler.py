"""Host resource profiling: RSS, allocation peaks, CPU time, GC activity.

For a reproduction of a *memory-aware* design paper, the telemetry layer
should be able to say what the **host** memory did while we modelled the
accelerator's.  This module is the single place in ``src/`` that touches
host resource APIs (``resource.getrusage``, ``tracemalloc``, ``gc``,
``time.process_time``) — the ``TelemetryDiscipline`` rule in
``tests/test_invariants.py`` enforces the confinement, so overhead and
platform quirks stay auditable in one file.

Three layers:

* point samplers — :func:`rss_peak_bytes`, :func:`process_cpu_seconds`,
  :func:`gc_collections`, and :class:`ResourceMeter` for block-scoped
  deltas (tracemalloc peak per block via ``reset_peak``);
* :func:`profiled_span` — an :mod:`repro.obs.state` span whose exit
  annotates the span with a ``resource`` meta block; a traced sweep
  wraps each point in one, giving per-sweep-point attribution;
* :class:`ProfilingTracer` + :func:`profile_capture` — a tracer that
  meters *every* span down to a depth limit, powering
  ``repro profile <workload>`` per-primitive attribution.

Resource samples are host measurements, not model output: they are
carried in span meta under the ``resource`` key, which
:func:`repro.obs.telemetry.strip_volatile` removes before determinism
comparisons and baseline gating ignores.
"""

from __future__ import annotations

import gc
import sys
import time
import tracemalloc
from contextlib import contextmanager
from dataclasses import dataclass
from typing import Any, Dict, Iterator, List, Optional, Tuple

from repro.obs import state as obs
from repro.obs.metrics import MetricsRegistry
from repro.obs.tracer import Span, Tracer, _SpanContext

__all__ = [
    "ProfilingTracer",
    "ResourceMeter",
    "ResourceSample",
    "alloc_tracing",
    "gc_collections",
    "process_cpu_seconds",
    "profile_capture",
    "profiled_span",
    "render_resource_profile",
    "rss_peak_bytes",
    "run_resource_summary",
]


# ----------------------------------------------------------------------
# Point samplers
# ----------------------------------------------------------------------
def rss_peak_bytes() -> int:
    """Peak resident set size of this process, in bytes (0 if unavailable).

    ``ru_maxrss`` is kilobytes on Linux and bytes on macOS; normalise to
    bytes.  Note this is a process-lifetime high-water mark — it never
    decreases — so per-block attribution uses tracemalloc deltas instead.
    """
    try:
        import resource
    except ImportError:  # pragma: no cover - non-POSIX
        return 0
    peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    if sys.platform == "darwin":  # pragma: no cover - linux CI
        return int(peak)
    return int(peak) * 1024


def process_cpu_seconds() -> float:
    """User + system CPU seconds of this process."""
    return time.process_time()


def gc_collections() -> int:
    """Total collections across all GC generations so far."""
    return sum(stat.get("collections", 0) for stat in gc.get_stats())


def alloc_tracing_active() -> bool:
    return tracemalloc.is_tracing()


@contextmanager
def alloc_tracing() -> Iterator[None]:
    """Enable tracemalloc for a block (left running if already active)."""
    if tracemalloc.is_tracing():
        yield
        return
    tracemalloc.start()
    try:
        yield
    finally:
        tracemalloc.stop()


def _alloc_peak_and_reset() -> Tuple[int, int]:
    """``(current, peak)`` traced bytes; resets the peak for the next block."""
    if not tracemalloc.is_tracing():
        return 0, 0
    current, peak = tracemalloc.get_traced_memory()
    tracemalloc.reset_peak()
    return current, peak


@dataclass(frozen=True)
class ResourceSample:
    """One block's resource delta, attached to spans as ``meta['resource']``."""

    rss_peak_bytes: int
    alloc_peak_bytes: int
    alloc_current_bytes: int
    cpu_seconds: float
    gc_collections: int

    def as_dict(self) -> Dict[str, Any]:
        return {
            "rss_peak_bytes": self.rss_peak_bytes,
            "alloc_peak_bytes": self.alloc_peak_bytes,
            "alloc_current_bytes": self.alloc_current_bytes,
            "cpu_seconds": self.cpu_seconds,
            "gc_collections": self.gc_collections,
        }


class ResourceMeter:
    """Block-scoped resource delta: enter to arm, exit to read.

    ``alloc_peak_bytes`` is the tracemalloc high-water mark *within* the
    block (``reset_peak`` on entry); ``cpu_seconds`` and
    ``gc_collections`` are deltas; ``rss_peak_bytes`` is the process
    high-water mark at exit (monotone by nature).
    """

    def __init__(self) -> None:
        self._cpu0 = 0.0
        self._gc0 = 0
        self.sample: Optional[ResourceSample] = None

    def __enter__(self) -> "ResourceMeter":
        if tracemalloc.is_tracing():
            tracemalloc.reset_peak()
        self._cpu0 = process_cpu_seconds()
        self._gc0 = gc_collections()
        return self

    def __exit__(self, exc_type: Any, exc: Any, tb: Any) -> None:
        current, peak = _alloc_peak_and_reset()
        self.sample = ResourceSample(
            rss_peak_bytes=rss_peak_bytes(),
            alloc_peak_bytes=peak,
            alloc_current_bytes=current,
            cpu_seconds=process_cpu_seconds() - self._cpu0,
            gc_collections=gc_collections() - self._gc0,
        )


def profiled_span(name: str, /, **meta: Any) -> Any:
    """An :mod:`repro.obs.state` span annotated with its resource delta.

    The single sanctioned way for code outside this module to attach
    resource samples to spans (a traced sweep wraps each point in one).
    No-op-cheap when tracing is disabled: the null-span context is
    returned as-is — one boolean test, no meter, no generator frame.
    """
    context = obs.span(name, **meta)
    if not obs.tracing_enabled():
        return context
    return _ProfiledSpanContext(context, True)


# ----------------------------------------------------------------------
# Whole-run profiling
# ----------------------------------------------------------------------
class _ProfiledSpanContext:
    """Wraps a span context, metering the block when within the depth limit."""

    __slots__ = ("_inner", "_meter")

    def __init__(self, inner: _SpanContext, profile: bool):
        self._inner = inner
        self._meter = ResourceMeter() if profile else None

    def __enter__(self) -> Span:
        span = self._inner.__enter__()
        if self._meter is not None:
            self._meter.__enter__()
        return span

    def __exit__(self, exc_type: Any, exc: Any, tb: Any) -> bool:
        if self._meter is not None:
            self._meter.__exit__(exc_type, exc, tb)
            sample = self._meter.sample
            if sample is not None:
                self._inner._span.annotate(resource=sample.as_dict())
        self._inner.__exit__(exc_type, exc, tb)
        return False


class ProfilingTracer(Tracer):
    """A tracer that attaches resource samples to spans as they close.

    ``max_depth`` bounds the metering (a meter per span costs a few
    microseconds; deep primitive loops would pay it millions of times) —
    spans opened deeper than ``max_depth`` record normally, unmetered.
    """

    def __init__(self, max_depth: int = 3, clock: Any = time.perf_counter):
        super().__init__(clock=clock)
        self.max_depth = max_depth

    def span(self, name: str, /, **meta: Any) -> Any:
        profile = len(self._stack) < self.max_depth
        return _ProfiledSpanContext(super().span(name, **meta), profile)


@contextmanager
def profile_capture(
    max_depth: int = 3, trace_allocs: bool = True
) -> Iterator[Tuple[ProfilingTracer, MetricsRegistry]]:
    """:func:`repro.obs.state.capture` with a :class:`ProfilingTracer`.

    Enables tracemalloc for the block (unless ``trace_allocs=False``),
    installs a profiling tracer + fresh registry globally, and restores
    prior state on exit.
    """
    tracer = ProfilingTracer(max_depth=max_depth)
    registry = MetricsRegistry()
    if trace_allocs:
        with alloc_tracing():
            with obs.capture(tracer, registry):
                yield tracer, registry
    else:
        with obs.capture(tracer, registry):
            yield tracer, registry


def run_resource_summary(
    wall_seconds: float, cpu_seconds: float
) -> Dict[str, Any]:
    """The ``resources`` block stamped into run reports."""
    current, peak = (
        tracemalloc.get_traced_memory()
        if tracemalloc.is_tracing()
        else (0, 0)
    )
    return {
        "peak_rss_bytes": rss_peak_bytes(),
        "alloc_peak_bytes": peak,
        "alloc_current_bytes": current,
        "wall_seconds": wall_seconds,
        "cpu_seconds": cpu_seconds,
        "gc_collections": gc_collections(),
    }


# ----------------------------------------------------------------------
# Rendering
# ----------------------------------------------------------------------
def _format_bytes(value: int) -> str:
    amount = float(value)
    for unit in ("B", "KiB", "MiB", "GiB"):
        if amount < 1024 or unit == "GiB":
            return f"{amount:,.1f} {unit}" if unit != "B" else f"{int(amount)} B"
        amount /= 1024
    return f"{int(value)} B"  # pragma: no cover - unreachable


def render_resource_profile(tracer: Tracer, limit: int = 40) -> str:
    """Flat per-span resource table for ``repro profile`` output."""
    rows: List[Tuple[str, Dict[str, Any], float]] = []
    for span in tracer.spans():
        sample = span.meta.get("resource")
        if isinstance(sample, dict):
            indent = "  " * span.depth
            rows.append((indent + span.name, sample, span.duration))
    lines = [
        f"{'span':<44} {'wall s':>9} {'cpu s':>9} "
        f"{'alloc peak':>12} {'gc':>4}"
    ]
    for name, sample, duration in rows[:limit]:
        lines.append(
            f"{name:<44} {duration:>9.4f} "
            f"{sample.get('cpu_seconds', 0.0):>9.4f} "
            f"{_format_bytes(int(sample.get('alloc_peak_bytes', 0))):>12} "
            f"{sample.get('gc_collections', 0):>4}"
        )
    if len(rows) > limit:
        lines.append(f"... {len(rows) - limit} more metered spans")
    if len(rows) == 0:
        lines.append("(no metered spans — was a ProfilingTracer installed?)")
    lines.append("")
    lines.append(f"process peak RSS: {_format_bytes(rss_peak_bytes())}")
    return "\n".join(lines)
