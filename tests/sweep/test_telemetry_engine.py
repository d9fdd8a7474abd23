"""Cross-process telemetry through the sweep engine.

The acceptance bar: a ``--jobs N`` sweep's merged span tree and metrics
are **bit-identical** to the serial run after
:func:`repro.obs.telemetry.strip_volatile` — worker snapshots are merged
in canonical chunk order, memoized computes are observationally
transparent, and per-point spans carry host resource attribution.
"""

import json
import os

from repro.obs import state as obs
from repro.obs.export import build_run_report
from repro.obs.telemetry import strip_volatile
from repro.perf.events import CostReport, MemTraffic, OpCount
from repro.sweep import (
    SweepAxis,
    SweepSpec,
    build_sweep_report,
    register_evaluator,
    run_sweep,
)


# Module-level so forked pool workers inherit the registrations.
def _traced(point, context, memo):
    with obs.span("model"):
        obs.record_cost(
            CostReport(
                OpCount(mults=point["a"] * 100, adds=point["a"]),
                MemTraffic(ct_read=point["a"] * 64),
            )
        )
        obs.count("model.evals")
        obs.observe("model.a", point["a"])
    return {"a": point["a"], "b": point["b"]}


def _memoed(point, context, memo):
    # The shared sub-result is computed under obs.suppressed() by Memo,
    # so which worker misses first cannot change the merged trace.
    base = memo.get_or_compute(("base", point["a"]), lambda: _base(point["a"]))
    with obs.span("combine"):
        obs.count("combine.calls")
    return {"value": base, "b": point["b"]}


def _base(a):
    with obs.span("base"):
        obs.count("base.computes")
    return a * 10


register_evaluator("test.traced", _traced)
register_evaluator("test.memoed", _memoed)


def _spec(evaluator="test.traced", chunk_size=2):
    return SweepSpec(
        name="telemetry-toy",
        evaluator=evaluator,
        axes=(SweepAxis("a", (1, 2, 3, 4)), SweepAxis("b", ("x", "y"))),
        context={},
        chunk_size=chunk_size,
    )


def _captured_report(spec, jobs):
    with obs.capture() as (tracer, registry):
        outcome = run_sweep(spec, jobs=jobs)
    report = build_run_report(
        tracer, registry, command="test", workload=f"sweep:{spec.name}"
    )
    return outcome, report


def _canon(report):
    return json.dumps(strip_volatile(report), sort_keys=True, default=str)


class TestCrossProcessParity:
    def test_jobs2_trace_bit_identical_to_serial(self):
        _, serial = _captured_report(_spec(), jobs=1)
        _, parallel = _captured_report(_spec(), jobs=2)
        assert _canon(serial) == _canon(parallel)

    def test_jobs3_and_chunk_size_invariance(self):
        _, baseline = _captured_report(_spec(chunk_size=2), jobs=1)
        _, other = _captured_report(_spec(chunk_size=3), jobs=3)
        assert _canon(baseline) == _canon(other)

    def test_memo_hit_miss_pattern_invisible_in_trace(self):
        # Serial: one miss per distinct "a". jobs=2: each worker misses
        # independently. The traces must still match bit-for-bit.
        _, serial = _captured_report(_spec(evaluator="test.memoed"), jobs=1)
        _, parallel = _captured_report(_spec(evaluator="test.memoed"), jobs=2)
        assert _canon(serial) == _canon(parallel)

    def test_results_unchanged_by_capture(self):
        bare = run_sweep(_spec(), jobs=2)
        captured, _ = _captured_report(_spec(), jobs=2)
        assert captured.rows == bare.rows


class TestSpanTree:
    def test_per_point_spans_with_resource_attribution(self):
        with obs.capture() as (tracer, _registry):
            run_sweep(_spec(), jobs=2)
        (run,) = tracer.roots
        assert run.name == "sweep:run"
        points = [s for s in run.walk() if s.name == "sweep:point"]
        assert [p.meta["index"] for p in points] == list(range(8))
        for point in points:
            resource = point.meta["resource"]
            assert resource["rss_peak_bytes"] > 0
            assert resource["cpu_seconds"] >= 0.0
        models = [s for s in run.walk() if s.name == "model"]
        assert len(models) == 8

    def test_span_costs_survive_worker_boundary_exactly(self):
        with obs.capture() as (tracer, _registry):
            run_sweep(_spec(), jobs=2)
        total = tracer.total_cost()
        # 2 points per "a" value: sum over a in 1..4 of 2 * a * 100.
        assert total.ops.mults == 2 * (1 + 2 + 3 + 4) * 100
        assert total.traffic.ct_read == 2 * (1 + 2 + 3 + 4) * 64

    def test_metrics_merged_from_workers(self):
        with obs.capture() as (_tracer, registry):
            run_sweep(_spec(), jobs=2)
        assert registry.counter("model.evals").value == 8
        hist = registry.histogram("model.a")
        assert hist.count == 8
        assert hist.min == 1 and hist.max == 4

    def test_no_telemetry_when_disabled(self):
        outcome = run_sweep(_spec(), jobs=2)
        assert outcome.rows  # sweep ran
        assert not obs.tracing_enabled()
        assert not obs.metrics_enabled()


class TestWorkerSummaries:
    def test_serial_summary_is_this_process(self):
        outcome = run_sweep(_spec(), jobs=1)
        (worker,) = outcome.workers
        assert worker["pid"] == os.getpid()
        assert worker["chunks"] == outcome.chunks
        assert worker["peak_rss_bytes"] >= 0

    def test_parallel_summary_covers_all_chunks(self):
        outcome = run_sweep(_spec(), jobs=2)
        assert 1 <= len(outcome.workers) <= 2
        assert sum(w["chunks"] for w in outcome.workers) == outcome.chunks
        assert all(w["pid"] != os.getpid() for w in outcome.workers)

    def test_parallel_summary_records_time_and_peak_rss(self):
        outcome = run_sweep(_spec(), jobs=2)
        for worker in outcome.workers:
            assert worker["chunks"] >= 1
            assert worker["busy_seconds"] >= 0.0
            assert worker["cpu_seconds"] >= 0.0
            assert worker["peak_rss_bytes"] > 0

    def test_sweep_report_keeps_the_worker_ledger(self):
        spec = _spec()
        outcome = run_sweep(spec, jobs=2)
        report = build_sweep_report(outcome)
        assert report["workers"] == outcome.workers
        assert sum(w["chunks"] for w in report["workers"]) == report["chunks"]
        assert len(report["points"]) == spec.size
        assert report["wall_seconds"] == outcome.wall_seconds

    def test_memo_totals_cover_every_point(self):
        # One memo lookup per point: the serial run misses once per
        # distinct "a" and hits for the other "b"; any split over
        # workers keeps hits + misses equal to the point count.
        spec = _spec(evaluator="test.memoed")
        serial = build_sweep_report(run_sweep(spec, jobs=1))
        assert serial["memo"] == {"hits": 4, "misses": 4}
        parallel = build_sweep_report(run_sweep(spec, jobs=2))
        memo = parallel["memo"]
        assert memo["hits"] + memo["misses"] == spec.size
        assert memo["misses"] >= 4
