"""Snapshot capture/merge/graft and volatile-field stripping.

The merge property tests use **integer** metric values throughout:
float summation is not associative, and the engine's canonical-order
merge only promises bit-identity because the analytical cost model is
integer-exact.
"""

import copy

from hypothesis import given, settings, strategies as st

from repro.obs.metrics import MetricsRegistry
from repro.obs.telemetry import (
    SNAPSHOT,
    VOLATILE_REPORT_KEYS,
    capture_snapshot,
    graft_snapshot,
    merge_into_registry,
    merge_snapshots,
    strip_volatile,
)
from repro.obs.tracer import Tracer
from repro.perf.events import CostReport, MemTraffic, OpCount

_NAMES = st.sampled_from(["sweep.points", "ntt.calls", "cache.fit", "memo"])


@st.composite
def snapshots(draw):
    counters = draw(st.dictionaries(_NAMES, st.integers(0, 10_000), max_size=3))
    gauges = draw(st.dictionaries(_NAMES, st.integers(-100, 100), max_size=3))
    histograms = {}
    for name in draw(st.lists(_NAMES, max_size=2, unique=True)):
        values = draw(st.lists(st.integers(0, 1000), min_size=1, max_size=5))
        histograms[name] = {
            "count": len(values),
            "total": sum(values),
            "min": min(values),
            "max": max(values),
        }
    span_names = draw(st.lists(st.sampled_from(["Mult", "Add"]), max_size=2))
    spans = [
        {
            "name": name,
            "meta": {"index": i},
            "start": float(i),
            "end": float(i + 1),
            "cost": None,
            "children": [],
        }
        for i, name in enumerate(span_names)
    ]
    return {
        "version": SNAPSHOT.id,
        "spans": spans,
        "metrics": {
            "counters": counters,
            "gauges": gauges,
            "histograms": histograms,
        },
    }


class TestMergeProperties:
    @settings(max_examples=50, deadline=None)
    @given(parts=st.lists(snapshots(), min_size=1, max_size=4))
    def test_merge_is_a_left_fold(self, parts):
        # One-shot merge == folding the parts in pairs, same order.
        folded = parts[0]
        for part in parts[1:]:
            folded = merge_snapshots([folded, part])
        assert merge_snapshots(parts) == folded

    @settings(max_examples=50, deadline=None)
    @given(a=snapshots(), b=snapshots(), c=snapshots())
    def test_merge_is_associative(self, a, b, c):
        left = merge_snapshots([merge_snapshots([a, b]), c])
        right = merge_snapshots([a, merge_snapshots([b, c])])
        assert left == right

    @settings(max_examples=50, deadline=None)
    @given(parts=st.lists(snapshots(), min_size=1, max_size=4))
    def test_merge_does_not_mutate_inputs(self, parts):
        originals = copy.deepcopy(parts)
        merge_snapshots(parts)
        assert parts == originals

    @settings(max_examples=50, deadline=None)
    @given(parts=st.lists(snapshots(), min_size=2, max_size=4))
    def test_counters_sum_and_spans_concatenate(self, parts):
        merged = merge_snapshots(parts)
        for name in merged["metrics"]["counters"]:
            expected = sum(
                p["metrics"]["counters"].get(name, 0) for p in parts
            )
            assert merged["metrics"]["counters"][name] == expected
        assert len(merged["spans"]) == sum(len(p["spans"]) for p in parts)

    @settings(max_examples=50, deadline=None)
    @given(parts=st.lists(snapshots(), min_size=2, max_size=4))
    def test_gauges_are_last_write_wins(self, parts):
        merged = merge_snapshots(parts)
        for name, value in merged["metrics"]["gauges"].items():
            last = [
                p["metrics"]["gauges"][name]
                for p in parts
                if name in p["metrics"]["gauges"]
            ][-1]
            assert value == last


class TestCaptureAndGraft:
    def _traced(self):
        clock = iter(range(100))
        tracer = Tracer(clock=lambda: float(next(clock)))
        registry = MetricsRegistry()
        with tracer.span("Bootstrap", phase="test"):
            with tracer.span("Mult") as span:
                span.record_cost(
                    CostReport(OpCount(mults=7), MemTraffic(ct_read=64))
                )
        registry.counter("ntt.calls").inc(3)
        registry.gauge("cache.mb").set(32)
        registry.histogram("chunk.points").observe(4)
        return tracer, registry

    def test_capture_shape(self):
        tracer, registry = self._traced()
        snapshot = capture_snapshot(tracer, registry)
        assert snapshot["version"] == SNAPSHOT.id
        (root,) = snapshot["spans"]
        assert root["name"] == "Bootstrap"
        assert root["start"] == 0.0  # rebased to earliest root
        (child,) = root["children"]
        assert child["cost"].ops.mults == 7
        assert snapshot["metrics"]["counters"] == {"ntt.calls": 3}

    def test_graft_rebuilds_spans_under_current(self):
        tracer, registry = self._traced()
        snapshot = capture_snapshot(tracer, registry)
        parent = Tracer(clock=lambda: 1000.0)
        with parent.span("sweep:run"):
            grafted = graft_snapshot(snapshot, parent)
        (run,) = parent.roots
        assert [s.name for s in run.children] == ["Bootstrap"]
        (bootstrap,) = grafted
        assert bootstrap.parent is run
        assert bootstrap.start >= 1000.0  # rebased onto the parent clock
        (mult,) = bootstrap.children
        assert mult.cost == CostReport(OpCount(mults=7), MemTraffic(ct_read=64))
        # Cost attribution survives the pickle-shaped round trip exactly.
        assert parent.total_cost() == tracer.total_cost()

    def test_capture_graft_capture_is_stable(self):
        tracer, registry = self._traced()
        first = capture_snapshot(tracer, registry)
        replayed = Tracer(clock=lambda: 0.0)
        graft_snapshot(first, replayed)
        second = capture_snapshot(replayed, registry)
        assert second["spans"] == first["spans"]

    def test_merge_into_registry(self):
        tracer, registry = self._traced()
        snapshot = capture_snapshot(tracer, registry)
        target = MetricsRegistry()
        target.counter("ntt.calls").inc(10)
        merge_into_registry(snapshot, target)
        assert target.counter("ntt.calls").value == 13
        assert target.gauge("cache.mb").value == 32
        assert target.histogram("chunk.points").count == 1


class TestStripVolatile:
    def _report(self):
        return {
            "schema": "repro.obs.run_report/v1.1",
            "command": "sweep table5",
            "wall_seconds": 1.25,
            "provenance": {"git_sha": "abc"},
            "resources": {"peak_rss_bytes": 123},
            "workers": [{"pid": 1}],
            "runtime": {"wall_seconds": 0.5, "cpu_seconds": 0.4},
            "spans": [
                {
                    "name": "sweep:run",
                    "start_us": 10,
                    "duration_us": 20,
                    "meta": {"jobs": 4},
                    "children": [
                        {
                            "name": "sweep:point",
                            "start_us": 11,
                            "duration_us": 5,
                            "meta": {
                                "index": 0,
                                "resource": {"rss_peak_bytes": 9},
                            },
                            "children": [],
                        }
                    ],
                }
            ],
            "metrics": {
                "counters": {
                    "sweep.points": 24,
                    "sweep.chunks.evaluated": 6,
                    "sweep.memo.hits": 3,
                },
                "gauges": {"sweep.jobs": 4, "cache.mb": 32},
                "histograms": {},
            },
        }

    def test_strips_scheduling_dependent_fields(self):
        stripped = strip_volatile(self._report())
        assert "provenance" not in stripped
        assert "resources" not in stripped
        assert "workers" not in stripped
        assert stripped["wall_seconds"] == 0.0
        assert stripped["runtime"] == {"wall_seconds": 0.0}
        run = stripped["spans"][0]
        assert run["start_us"] == 0 and run["duration_us"] == 0
        assert run["meta"]["jobs"] == 0
        point = run["children"][0]
        assert "resource" not in point["meta"]
        assert point["meta"]["index"] == 0  # stable meta survives
        counters = stripped["metrics"]["counters"]
        assert counters == {"sweep.points": 24}
        assert stripped["metrics"]["gauges"] == {"cache.mb": 32}

    def test_sweep_report_keeps_only_results(self):
        # Every report family goes through the same canonicaliser.
        report = {key: 1 for key in VOLATILE_REPORT_KEYS}
        report.update(schema="sweep", points=[{"index": 0}])
        report["wall_seconds"] = 2.5
        assert strip_volatile(report) == {
            "schema": "sweep",
            "points": [{"index": 0}],
            "wall_seconds": 0.0,
        }

    def test_input_not_mutated(self):
        report = self._report()
        original = copy.deepcopy(report)
        strip_volatile(report)
        assert report == original

    def test_two_schedules_strip_to_identical_reports(self):
        serial = self._report()
        parallel = copy.deepcopy(serial)
        parallel["wall_seconds"] = 9.0
        parallel["workers"] = [{"pid": 2}, {"pid": 3}]
        parallel["spans"][0]["meta"]["jobs"] = 2
        parallel["spans"][0]["children"][0]["meta"]["resource"] = {
            "rss_peak_bytes": 77
        }
        parallel["metrics"]["counters"]["sweep.chunks.evaluated"] = 2
        assert strip_volatile(serial) == strip_volatile(parallel)
