"""Resource profiler smoke tests: monotonicity, metering, depth limits."""

import os
import time

from repro.obs import state as obs
from repro.obs.profiler import (
    ProfilingTracer,
    ResourceMeter,
    alloc_tracing,
    alloc_tracing_active,
    gc_collections,
    process_cpu_seconds,
    profile_capture,
    profiled_span,
    render_resource_profile,
    rss_peak_bytes,
    run_resource_summary,
)


class TestPointSamplers:
    def test_rss_peak_is_positive_on_posix(self):
        peak = rss_peak_bytes()
        assert peak >= 0
        # On Linux/macOS a running interpreter is at least a few MB.
        assert peak > 1024 * 1024

    def test_rss_peak_is_monotone(self):
        before = rss_peak_bytes()
        ballast = [0] * 500_000
        after = rss_peak_bytes()
        assert after >= before
        del ballast

    def test_cpu_bounded_by_wall_times_cores(self):
        cores = os.cpu_count() or 1
        wall0 = time.perf_counter()
        cpu0 = process_cpu_seconds()
        total = sum(i * i for i in range(200_000))
        cpu = process_cpu_seconds() - cpu0
        wall = time.perf_counter() - wall0
        assert total > 0
        assert 0.0 <= cpu <= wall * cores + 0.05

    def test_gc_collections_non_negative_and_monotone(self):
        before = gc_collections()
        assert before >= 0
        assert gc_collections() >= before


class TestAllocTracing:
    def test_scoped_tracing_stops_on_exit(self):
        assert not alloc_tracing_active()
        with alloc_tracing():
            assert alloc_tracing_active()
        assert not alloc_tracing_active()

    def test_nested_scope_does_not_stop_outer(self):
        with alloc_tracing():
            with alloc_tracing():
                assert alloc_tracing_active()
            assert alloc_tracing_active()


class TestResourceMeter:
    def test_sample_shape_and_bounds(self):
        with alloc_tracing():
            with ResourceMeter() as meter:
                ballast = bytearray(2_000_000)
                del ballast
        sample = meter.sample
        assert sample is not None
        assert sample.rss_peak_bytes >= 0
        assert sample.alloc_peak_bytes >= 2_000_000
        assert sample.cpu_seconds >= 0.0
        assert sample.gc_collections >= 0
        as_dict = sample.as_dict()
        assert set(as_dict) == {
            "rss_peak_bytes",
            "alloc_peak_bytes",
            "alloc_current_bytes",
            "cpu_seconds",
            "gc_collections",
        }

    def test_peak_resets_between_blocks(self):
        with alloc_tracing():
            with ResourceMeter() as first:
                ballast = bytearray(4_000_000)
                del ballast
            with ResourceMeter() as second:
                pass
        assert first.sample.alloc_peak_bytes >= 4_000_000
        # The second block never held the ballast; reset_peak isolates it.
        assert second.sample.alloc_peak_bytes < 4_000_000

    def test_without_tracemalloc_allocs_are_zero(self):
        assert not alloc_tracing_active()
        with ResourceMeter() as meter:
            pass
        assert meter.sample.alloc_peak_bytes == 0
        assert meter.sample.alloc_current_bytes == 0


class TestProfiledSpan:
    def test_annotates_span_with_resource_block(self):
        with obs.capture() as (tracer, _registry):
            with alloc_tracing():
                with profiled_span("sweep:point", index=3):
                    pass
        (span,) = tracer.roots
        assert span.meta["index"] == 3
        resource = span.meta["resource"]
        assert resource["rss_peak_bytes"] >= 0
        assert resource["cpu_seconds"] >= 0.0

    def test_noop_when_tracing_disabled(self):
        with profiled_span("sweep:point", index=0) as span:
            pass
        assert span.meta == {}  # the shared null span stays unannotated


class TestProfilingTracer:
    def test_meters_only_to_max_depth(self):
        tracer = ProfilingTracer(max_depth=2)
        with tracer.span("a"):
            with tracer.span("b"):
                with tracer.span("c"):
                    pass
        spans = {span.name: span for span in tracer.spans()}
        assert "resource" in spans["a"].meta
        assert "resource" in spans["b"].meta
        assert "resource" not in spans["c"].meta

    def test_profile_capture_installs_and_restores(self):
        assert not obs.tracing_enabled()
        with profile_capture(max_depth=1) as (tracer, registry):
            assert obs.tracing_enabled()
            assert alloc_tracing_active()
            with obs.span("workload"):
                pass
        assert not obs.tracing_enabled()
        assert not alloc_tracing_active()
        (span,) = tracer.roots
        assert "resource" in span.meta

    def test_profile_capture_without_allocs(self):
        with profile_capture(max_depth=1, trace_allocs=False) as (tracer, _):
            assert not alloc_tracing_active()
            with obs.span("workload"):
                pass
        (span,) = tracer.roots
        assert span.meta["resource"]["alloc_peak_bytes"] == 0


class TestSummariesAndRendering:
    def test_run_resource_summary_shape(self):
        summary = run_resource_summary(wall_seconds=1.5, cpu_seconds=1.0)
        assert summary["wall_seconds"] == 1.5
        assert summary["cpu_seconds"] == 1.0
        assert summary["peak_rss_bytes"] >= 0
        assert summary["gc_collections"] >= 0

    def test_render_resource_profile(self):
        with profile_capture(max_depth=2) as (tracer, _):
            with obs.span("Bootstrap"):
                with obs.span("Mult"):
                    pass
        text = render_resource_profile(tracer)
        assert "Bootstrap" in text
        assert "Mult" in text
        assert "process peak RSS" in text

    def test_render_empty_tracer(self):
        from repro.obs.tracer import Tracer

        text = render_resource_profile(Tracer())
        assert "no metered spans" in text
