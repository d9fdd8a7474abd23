"""Engine semantics: canonical order, one memo per run, telemetry, and the
retired pool parameters."""

import pytest

from repro.memsim.validate import run_validation
from repro.obs import state as obs
from repro.obs.profiler import profiled_span
from repro.report.figures import (
    generate_fig6_grid,
    generate_fig6_lr,
    generate_fig6_resnet,
)
from repro.report.tables import generate_table5
from repro.sweep import SweepAxis, SweepSpec, build_sweep_report, run_sweep
from repro.sweep.engine import point_span
from repro.sweep.evaluators import EVALUATORS, Evaluator


def _echo(point, context, memo):
    return {"a": point["a"], "b": point["b"], "scale": context.get("scale", 1)}


def _product(point, context, memo):
    # Shares one memoized sub-evaluation per distinct "a" across points.
    base = memo.get_or_compute(("base", point["a"]), lambda: point["a"] * 10)
    return {"value": base + context["offset"], "b": point["b"]}


def _boom(point, context, memo):
    if point["a"] == 2:
        raise RuntimeError("kaboom at a=2")
    return {"a": point["a"]}


def _record(point, context, memo):
    context["seen"].append((point["a"], point["b"]))
    return dict(point)


#: Toy evaluators, added to the mapping for the rest of the test run:
#: the report and schema tests import this module to run "test.echo".
EVALUATORS.update(
    (evaluator.name, evaluator)
    for evaluator in (
        Evaluator("test.echo", _echo),
        Evaluator("test.record", _record),
        Evaluator("test.product", _product),
        Evaluator("test.boom", _boom),
    )
)


def _spec(evaluator="test.echo", context=None):
    return SweepSpec(
        name="toy",
        evaluator=evaluator,
        axes=(SweepAxis("a", (1, 2, 3)), SweepAxis("b", ("x", "y"))),
        context=context if context is not None else {"scale": 1},
    )


class TestEngine:
    def test_values_in_canonical_order(self):
        outcome = run_sweep(_spec())
        assert [v["a"] for v in outcome.values] == [1, 1, 2, 2, 3, 3]
        assert [v["b"] for v in outcome.values] == ["x", "y"] * 3

    def test_each_point_is_evaluated_once_in_canonical_order(self):
        seen = []
        run_sweep(_spec("test.record", {"seen": seen}))
        assert seen == [(a, b) for a in (1, 2, 3) for b in ("x", "y")]

    def test_rows_default_to_dict_values(self):
        outcome = run_sweep(_spec())
        report = build_sweep_report(outcome)
        assert [entry["row"] for entry in report["points"]] == outcome.values

    def test_memo_shared_across_whole_run(self):
        outcome = run_sweep(_spec("test.product", {"offset": 5}))
        # 3 distinct "a" values over 6 points: 3 misses, 3 hits.
        assert (outcome.memo_hits, outcome.memo_misses) == (3, 3)
        assert outcome.memo_hit_rate == pytest.approx(0.5)

    def test_each_run_starts_a_fresh_memo(self):
        first = run_sweep(_spec("test.product", {"offset": 5}))
        second = run_sweep(_spec("test.product", {"offset": 5}))
        assert (second.memo_hits, second.memo_misses) == (3, 3)
        assert second.values == first.values

    def test_evaluator_error_propagates(self):
        with pytest.raises(RuntimeError, match="kaboom"):
            run_sweep(_spec("test.boom", {}))

    def test_dispatch_metrics_published(self):
        with obs.capture() as (tracer, registry):
            run_sweep(_spec("test.product", {"offset": 5}))
        assert registry.counters() == {
            "sweep.memo.hits": 3,
            "sweep.memo.misses": 3,
            "sweep.points": 6,
        }
        assert registry.snapshot()["gauges"] == {"sweep.memo_hit_rate": 0.5}
        (run,) = tracer.roots
        assert run.name == "sweep:run"
        assert run.meta == {"sweep": "toy", "evaluator": "test.product", "points": 6}

    def test_traced_error_propagates_and_closes_the_run_span(self):
        with obs.capture() as (tracer, _registry):
            with pytest.raises(RuntimeError, match="kaboom"):
                run_sweep(_spec("test.boom", {}))
        (run,) = tracer.roots
        assert run.end is not None
        # Points 0 and 1 (a=1) finished; point 2 (a=2) raised inside its span.
        assert [p.meta["index"] for p in run.children] == [0, 1, 2]
        assert not obs.tracing_enabled()

    def test_points_open_the_plain_span_unless_tracing(self):
        # Picked once per run: an untraced sweep pays no wrapper per point.
        assert point_span() is obs.span
        with obs.capture():
            assert point_span() is profiled_span

    def test_traced_sweep_leaves_tracemalloc_off(self):
        import tracemalloc

        with obs.capture():
            run_sweep(_spec())
        assert not tracemalloc.is_tracing()

    def test_metrics_without_tracing_reach_the_registry(self):
        from repro.obs import MetricsRegistry

        registry = MetricsRegistry()
        previous = obs.set_metrics(registry, enabled=True)
        try:
            outcome = run_sweep(_spec("test.product", {"offset": 5}))
        finally:
            obs.set_metrics(*previous)
        assert not obs.tracing_enabled()
        assert registry.counters() == {
            "sweep.memo.hits": outcome.memo_hits,
            "sweep.memo.misses": outcome.memo_misses,
            "sweep.points": 6,
        }


#: The library parameters that selected the retired process pool, its
#: chunking and resume: each is now an unexpected keyword, raised before
#: anything runs.
RETIRED_PARAMETERS = [
    pytest.param(run_sweep, (_spec(),), "jobs", id="run_sweep-jobs"),
    pytest.param(run_sweep, (_spec(),), "resume", id="run_sweep-resume"),
    pytest.param(
        SweepSpec, ("toy", "test.echo", (SweepAxis("a", (1,)),)), "chunk_size",
        id="SweepSpec-chunk_size",
    ),
    pytest.param(generate_table5, (), "jobs", id="generate_table5-jobs"),
    pytest.param(generate_fig6_grid, ("lr",), "jobs", id="generate_fig6_grid-jobs"),
    pytest.param(generate_fig6_lr, (None, [32.0]), "jobs", id="generate_fig6_lr-jobs"),
    pytest.param(
        generate_fig6_resnet, (None, [32.0]), "jobs", id="generate_fig6_resnet-jobs"
    ),
    pytest.param(run_validation, (), "jobs", id="run_validation-jobs"),
]


@pytest.mark.parametrize("fn, args, parameter", RETIRED_PARAMETERS)
def test_retired_parameters_are_type_errors(fn, args, parameter):
    with pytest.raises(TypeError, match=f"unexpected keyword argument '{parameter}'"):
        fn(*args, **{parameter: 1})
