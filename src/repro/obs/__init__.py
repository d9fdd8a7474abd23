"""Observability: hierarchical span tracing, metrics, machine-readable dumps.

The subsystem's modules:

* :mod:`repro.obs.tracer` / :mod:`repro.obs.metrics` — the recording
  primitives (span trees with analytical-cost attribution; counters,
  gauges, histograms);
* :mod:`repro.obs.state` — the process-global default tracer/registry and
  the instrumentation facade used by model code (``obs.span``,
  ``obs.record_cost``, ``obs.count``), with a no-op fast path when
  disabled;
* :mod:`repro.obs.export` — Chrome trace-event JSON (Perfetto /
  ``chrome://tracing``), a flat text profile, and the versioned
  ``run_report.json`` schema (every span carries a stable hierarchical
  *path*, the cross-run alignment key);
* :mod:`repro.obs.diff` — differential cost attribution between two run
  reports: span-by-span alignment with rename tolerance, per-stream
  traffic deltas, a sorted attribution table, a Chrome-trace overlay and
  the versioned ``cost_diff.json`` schema;
* :mod:`repro.obs.baseline` / :mod:`repro.obs.bench` — committed
  baseline snapshots (``benchmarks/baselines/``) and the
  ``python -m repro bench`` regression gate built on the diff engine;
* :mod:`repro.obs.profiler` — host resource profiling (RSS /
  tracemalloc / CPU / GC), span by span;
* :mod:`repro.obs.telemetry` — :func:`~repro.obs.telemetry.strip_volatile`,
  the one canonicaliser that drops host and clock fields before reports
  are compared;
* :mod:`repro.obs.schema` — the table of report schemas, its validator,
  and the ``provenance`` block every report carries.

Typical use::

    from repro import obs
    from repro.obs.export import write_chrome_trace

    with obs.capture() as (tracer, registry):
        BootstrapModel(params, config).total_cost()
    write_chrome_trace(tracer, "trace.json")

Tracing alters nothing: a traced run returns bit-identical CostReports to
an untraced one, and the sum of all span costs equals the model total.
"""

from repro.obs.metrics import Counter, Gauge, Histogram, MetricsRegistry
from repro.obs.tracer import NULL_TRACER, NullTracer, Span, Tracer
from repro.obs.state import (
    annotate,
    capture,
    count,
    current_span,
    gauge,
    get_tracer,
    metrics,
    metrics_enabled,
    observe,
    record_cost,
    reset,
    scoped,
    set_metrics,
    set_tracer,
    span,
    suppressed,
    tracing_enabled,
)

__all__ = [
    "Counter",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "NULL_TRACER",
    "NullTracer",
    "Span",
    "Tracer",
    "annotate",
    "capture",
    "count",
    "current_span",
    "gauge",
    "get_tracer",
    "metrics",
    "metrics_enabled",
    "observe",
    "record_cost",
    "reset",
    "scoped",
    "set_metrics",
    "set_tracer",
    "span",
    "suppressed",
    "tracing_enabled",
]
