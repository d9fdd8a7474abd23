"""Observability overhead — the disabled path must cost ~nothing.

Instrumented model code runs through :mod:`repro.obs.state` on every call;
when no tracer is installed each hook is a boolean test or a no-op method
on a shared singleton.  These benchmarks pin the disabled-path cost of the
bootstrap ledger (the most heavily instrumented code path) and record the
enabled-path cost next to it for comparison in ``extra_info``.
"""

import pytest

from repro.obs import state
from repro.params import BASELINE_JUNG
from repro.perf import BootstrapModel, MADConfig


def build_ledger():
    return BootstrapModel(BASELINE_JUNG, MADConfig.none()).ledger()


@pytest.mark.repro("obs overhead (disabled)")
def test_ledger_with_tracing_disabled(benchmark):
    assert not state.tracing_enabled()
    ledger = benchmark(build_ledger)
    benchmark.extra_info["entries"] = len(ledger)
    benchmark.extra_info["tracing"] = "disabled"


@pytest.mark.repro("obs overhead (enabled)")
def test_ledger_with_tracing_enabled(benchmark):
    def traced():
        with state.capture():
            return build_ledger()

    ledger = benchmark(traced)
    benchmark.extra_info["entries"] = len(ledger)
    benchmark.extra_info["tracing"] = "enabled"


@pytest.mark.repro("obs overhead (null hooks)")
def test_null_hooks_are_cheap(benchmark):
    """Ten thousand disabled span/count pairs should cost milliseconds."""

    def hammer(iterations=10_000):
        for _ in range(iterations):
            with state.span("noop", level=1):
                pass
            state.count("noop")

    benchmark(hammer)


# ----------------------------------------------------------------------
# Resource profiling: the per-point hook must stay invisible when
# tracing is disabled.
# ----------------------------------------------------------------------
def _best_of(fn, repeats=7):
    import time

    best = float("inf")
    for _ in range(repeats):
        start = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - start)
    return best


@pytest.mark.repro("telemetry overhead (sweep point span, tracing disabled)")
def test_profiled_span_disabled_path_gate(benchmark):
    """The span the sweep engine opens per point, with tracing disabled,
    must track plain obs.span within 5% + 5ms per 10k calls.

    The engine picks :func:`~repro.obs.profiler.profiled_span` or the
    plain span once per run (:func:`repro.sweep.engine.point_span`), so
    an untraced sweep pays no wrapper frame per point.
    """
    from repro.sweep.engine import point_span

    assert not state.tracing_enabled()
    span = point_span()

    def plain(iterations=10_000):
        for _ in range(iterations):
            with state.span("sweep:point", index=1):
                pass

    def per_point(iterations=10_000):
        for _ in range(iterations):
            with span("sweep:point", index=1):
                pass

    base = _best_of(plain)
    gated = _best_of(per_point)
    benchmark.extra_info["plain_s"] = base
    benchmark.extra_info["per_point_s"] = gated
    assert gated <= base * 1.05 + 0.005, (
        f"disabled per-point span too slow: {gated:.4f}s vs "
        f"{base:.4f}s plain (gate: 5% + 5ms)"
    )
    benchmark(per_point)
