"""Process-global observability state and the instrumentation facade.

Instrumented modules never hold tracer references; they call the
module-level helpers here::

    from repro.obs import state as obs

    with obs.span("CoeffToSlot", level=level):
        obs.record_cost(cost)
    obs.count("numth.ntt.forward")

By default the global tracer is :data:`~repro.obs.tracer.NULL_TRACER` and
metrics are disabled, so every helper is a boolean test or a no-op method
on a shared singleton.  :func:`capture` enables both for a block and
restores the previous state on exit — the pattern the CLI and tests use.
"""

from __future__ import annotations

from contextlib import contextmanager
from typing import Iterator, Optional, Tuple

from repro.obs.metrics import MetricsRegistry
from repro.obs.tracer import NULL_TRACER, Span, Tracer

_tracer = NULL_TRACER
_metrics = MetricsRegistry()
_metrics_enabled = False


# ----------------------------------------------------------------------
# Tracing
# ----------------------------------------------------------------------
def get_tracer():
    """The process-global tracer (the null tracer when disabled)."""
    return _tracer


def set_tracer(tracer: Optional[Tracer]):
    """Install ``tracer`` globally (None disables); returns the previous one."""
    global _tracer
    previous = _tracer
    _tracer = NULL_TRACER if tracer is None else tracer
    return previous


def tracing_enabled() -> bool:
    return _tracer.enabled


def span(name: str, /, **meta):
    """Open a span on the global tracer (no-op context when disabled)."""
    return _tracer.span(name, **meta)


def record_cost(cost) -> None:
    """Attribute a cost delta to the innermost open span."""
    _tracer.record_cost(cost)


def annotate(**meta) -> None:
    """Merge metadata into the innermost open span."""
    _tracer.annotate(**meta)


def current_span() -> Optional[Span]:
    return _tracer.current


# ----------------------------------------------------------------------
# Metrics
# ----------------------------------------------------------------------
def metrics() -> MetricsRegistry:
    """The process-global metrics registry (readable even when disabled)."""
    return _metrics


def set_metrics(
    registry: Optional[MetricsRegistry], enabled: bool = True
) -> Tuple[MetricsRegistry, bool]:
    """Swap the global registry; returns the previous (registry, enabled)."""
    global _metrics, _metrics_enabled
    previous = (_metrics, _metrics_enabled)
    if registry is not None:
        _metrics = registry
    _metrics_enabled = enabled
    return previous


def metrics_enabled() -> bool:
    return _metrics_enabled


def count(name: str, amount: int = 1) -> None:
    """Increment a counter; a single boolean test when disabled."""
    if _metrics_enabled:
        _metrics.counter(name).inc(amount)


def gauge(name: str, value: float) -> None:
    if _metrics_enabled:
        _metrics.gauge(name).set(value)


def observe(name: str, value: float) -> None:
    if _metrics_enabled:
        _metrics.histogram(name).observe(value)


# ----------------------------------------------------------------------
# Scoped enablement
# ----------------------------------------------------------------------
def reset() -> None:
    """Restore the pristine default state: null tracer, fresh disabled registry.

    Back-to-back CLI invocations in one process (tests drive ``main()``
    directly) must not see each other's counters; :func:`scoped` calls
    this so every invocation starts clean.
    """
    global _tracer, _metrics, _metrics_enabled
    _tracer = NULL_TRACER
    _metrics = MetricsRegistry()
    _metrics_enabled = False


@contextmanager
def scoped() -> Iterator[None]:
    """Run a block against fresh global state, restoring the caller's on exit.

    Unlike :func:`capture` this does not *enable* anything — it
    guarantees isolation: whatever the block installs (via
    :func:`capture`, :func:`set_tracer`, ...) is discarded afterwards,
    and nothing recorded before the block bleeds in.  ``cli.main`` wraps
    every command dispatch in one.
    """
    global _tracer, _metrics, _metrics_enabled
    previous = (_tracer, _metrics, _metrics_enabled)
    reset()
    try:
        yield
    finally:
        _tracer, _metrics, _metrics_enabled = previous


@contextmanager
def suppressed() -> Iterator[None]:
    """Disable tracing and metrics for a block, restoring state on exit.

    Used where instrumentation must be *observationally transparent*:
    :meth:`repro.sweep.memo.Memo.get_or_compute` runs compute callbacks
    under suppression so a memoized evaluation emits the same telemetry
    on hit and miss (none) — otherwise a sweep's span tree would depend
    on which point happened to see a key first.
    """
    global _tracer, _metrics, _metrics_enabled
    previous = (_tracer, _metrics, _metrics_enabled)
    _tracer = NULL_TRACER
    _metrics_enabled = False
    try:
        yield
    finally:
        _tracer, _metrics, _metrics_enabled = previous


@contextmanager
def capture(
    tracer: Optional[Tracer] = None,
    registry: Optional[MetricsRegistry] = None,
) -> Iterator[Tuple[Tracer, MetricsRegistry]]:
    """Enable tracing + metrics for a block, restoring prior state on exit.

    Yields the (fresh unless provided) tracer and registry so the caller
    can export them after the block.
    """
    tracer = Tracer() if tracer is None else tracer
    registry = MetricsRegistry() if registry is None else registry
    previous_tracer = set_tracer(tracer)
    previous_metrics = set_metrics(registry, enabled=True)
    try:
        yield tracer, registry
    finally:
        set_tracer(
            previous_tracer if previous_tracer is not NULL_TRACER else None
        )
        set_metrics(previous_metrics[0], enabled=previous_metrics[1])
