"""Telemetry through the sweep engine.

Under a caller's capture, each point runs in a ``sweep:point`` span with
a host resource sample, directly under the ``sweep:run`` span; evaluator
spans, costs and metrics land in the caller's tracer and registry, and
memoized computes leave no trace.  Capturing never changes a result.
"""

from repro.obs import state as obs
from repro.obs.export import build_run_report
from repro.perf.events import CostReport, MemTraffic, OpCount
from repro.sweep import SweepAxis, SweepSpec, build_sweep_report, run_sweep
from repro.sweep.evaluators import EVALUATORS, Evaluator


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
    # so the point that misses records the same spans as the one that hits.
    base = memo.get_or_compute(("base", point["a"]), lambda: _base(point["a"]))
    with obs.span("combine"):
        obs.count("combine.calls")
    return {"value": base, "b": point["b"]}


def _base(a):
    with obs.span("base"):
        obs.count("base.computes")
    return a * 10


EVALUATORS.update(
    (evaluator.name, evaluator)
    for evaluator in (
        Evaluator("test.traced", _traced),
        Evaluator("test.memoed", _memoed),
    )
)


def _spec(evaluator="test.traced"):
    return SweepSpec(
        name="telemetry-toy",
        evaluator=evaluator,
        axes=(SweepAxis("a", (1, 2, 3, 4)), SweepAxis("b", ("x", "y"))),
        context={},
    )


def _captured(spec):
    with obs.capture() as (tracer, registry):
        outcome = run_sweep(spec)
    return outcome, tracer, registry


class TestSpanTree:
    def test_points_are_children_of_the_run_with_resource_samples(self):
        _, tracer, _ = _captured(_spec())
        (run,) = tracer.roots
        assert run.name == "sweep:run"
        assert [p.name for p in run.children] == ["sweep:point"] * 8
        assert [p.meta["index"] for p in run.children] == list(range(8))
        for point in run.children:
            resource = point.meta["resource"]
            assert resource["rss_peak_bytes"] > 0
            assert resource["cpu_seconds"] >= 0.0
            assert [child.name for child in point.children] == ["model"]

    def test_span_costs_equal_the_untraced_model(self):
        _, tracer, _ = _captured(_spec())
        total = tracer.total_cost()
        # 2 points per "a" value: sum over a in 1..4 of 2 * a * 100.
        assert total.ops.mults == 2 * (1 + 2 + 3 + 4) * 100
        assert total.ops.adds == 2 * (1 + 2 + 3 + 4)
        assert total.traffic.ct_read == 2 * (1 + 2 + 3 + 4) * 64

    def test_evaluator_metrics_reach_the_caller_registry(self):
        _, _, registry = _captured(_spec())
        assert registry.counter("model.evals").value == 8
        hist = registry.histogram("model.a")
        assert hist.count == 8
        assert hist.min == 1 and hist.max == 4

    def test_memo_pattern_does_not_show_in_the_trace(self):
        # The first point of each "a" misses and the second hits; both
        # record exactly one "combine" span and no "base" span.
        outcome, tracer, registry = _captured(_spec("test.memoed"))
        assert (outcome.memo_hits, outcome.memo_misses) == (4, 4)
        (run,) = tracer.roots
        assert [
            [child.name for child in point.children] for point in run.children
        ] == [["combine"]] * 8
        counters = registry.counters()
        assert counters["combine.calls"] == 8
        assert "base.computes" not in counters

    def test_no_telemetry_when_disabled(self):
        outcome = run_sweep(_spec())
        assert len(outcome.values) == 8  # sweep ran
        assert not obs.tracing_enabled()
        assert not obs.metrics_enabled()


class TestResults:
    def test_results_unchanged_by_capture(self):
        bare = run_sweep(_spec())
        captured, _, _ = _captured(_spec())
        assert captured.values == bare.values
        points = [build_sweep_report(o)["points"] for o in (captured, bare)]
        assert points[0] == points[1]

    def test_memo_totals_match_between_sweep_and_run_reports(self):
        # One memo lookup per point: a miss per distinct "a" and a hit
        # for the other "b", in the sweep report and the run metrics.
        spec = _spec(evaluator="test.memoed")
        outcome, tracer, registry = _captured(spec)
        sweep = build_sweep_report(outcome)
        assert sweep["memo"] == {"hits": 4, "misses": 4}
        run = build_run_report(tracer, registry, command="test", workload="toy")
        counters = run["metrics"]["counters"]
        assert counters["sweep.memo.hits"] == sweep["memo"]["hits"]
        assert counters["sweep.memo.misses"] == sweep["memo"]["misses"]
        assert counters["sweep.points"] == spec.size
