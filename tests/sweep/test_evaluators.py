"""Built-in evaluators reproduce their serial surfaces bit-for-bit."""

import dataclasses
import json

import pytest

from repro.obs import schema
from repro.obs import state as obs
from repro.params import BASELINE_JUNG, CkksParams
from repro.perf import BootstrapModel, CacheModel, MADConfig, cost_shape
from repro.hardware import PRIOR_DESIGNS, mad_counterpart
from repro.hardware.runtime import estimate_runtime
from repro.sweep import (
    SWEEP_REPORT,
    Memo,
    SweepAxis,
    SweepSpec,
    build_preset,
    build_sweep_report,
    get_evaluator,
    preset_names,
    run_sweep,
)
from repro.sweep.evaluators import Evaluator, memoized_bootstrap_cost


def _rows(outcome):
    return [entry["row"] for entry in build_sweep_report(outcome)["points"]]


class TestEvaluatorMapping:
    def test_builtins_resolve_by_name(self):
        for name in (
            "search.candidate",
            "bootstrap.cost",
            "fig6.bar",
            "memsim.primitive",
        ):
            assert get_evaluator(name).name == name

    def test_unknown_evaluator_lists_known(self):
        with pytest.raises(KeyError, match="search.candidate"):
            get_evaluator("no.such.evaluator")

    def test_default_row_wraps_non_dict_values(self):
        evaluator = Evaluator("test.row", lambda point, context, memo: None)
        assert evaluator.row({"a": 1}, {}) == {"a": 1}
        assert evaluator.row(42, {}) == {"value": 42}


class TestSearchCandidate:
    def test_matches_direct_evaluation(self):
        from repro.search.throughput import bootstrap_throughput

        design = mad_counterpart(PRIOR_DESIGNS["GPU [Jung et al.]"])
        spec = SweepSpec(
            name="one",
            evaluator="search.candidate",
            axes=(SweepAxis("params", (BASELINE_JUNG,)),),
            context={
                "design": design,
                "config": MADConfig.all(),
                "enforce_cache": False,
            },
        )
        result = run_sweep(spec).values[0]
        cost = BootstrapModel(BASELINE_JUNG, MADConfig.all()).total_cost()
        runtime = estimate_runtime(cost, design)
        assert result.cost == cost
        assert result.runtime == runtime
        assert result.throughput == bootstrap_throughput(
            BASELINE_JUNG.slots,
            BASELINE_JUNG.log_q1,
            BASELINE_JUNG.bit_precision,
            runtime.seconds,
        )

    def test_enforce_cache_uses_design_capacity(self):
        design = mad_counterpart(PRIOR_DESIGNS["GPU [Jung et al.]"])
        spec = SweepSpec(
            name="one",
            evaluator="search.candidate",
            axes=(SweepAxis("params", (BASELINE_JUNG,)),),
            context={
                "design": design,
                "config": MADConfig.all(),
                "enforce_cache": True,
            },
        )
        result = run_sweep(spec).values[0]
        expected = BootstrapModel(
            BASELINE_JUNG, MADConfig.all(), design.cache
        ).total_cost()
        assert result.cost == expected


class TestBootstrapCost:
    def test_matches_direct_model(self):
        spec = SweepSpec(
            name="cache-ladder",
            evaluator="bootstrap.cost",
            axes=(SweepAxis("cache_mb", (2.0, 32.0)),),
            context={
                "params": BASELINE_JUNG,
                "config": MADConfig.caching_only(),
            },
        )
        rows = run_sweep(spec).values
        for row, mb in zip(rows, (2.0, 32.0)):
            cost = BootstrapModel(
                BASELINE_JUNG, MADConfig.caching_only(), CacheModel.from_mb(mb)
            ).total_cost()
            assert row["cache_mb"] == mb
            assert row["traffic_total"] == cost.traffic.total
            assert row["ops_total"] == cost.ops.total
            assert row["dram_gb"] == cost.gigabytes()

    def test_flag_axis_toggles_single_optimizations(self):
        spec = SweepSpec(
            name="flags",
            evaluator="bootstrap.cost",
            axes=(SweepAxis("flag", ("baseline", "cache_o1")),),
            context={"params": BASELINE_JUNG, "config": MADConfig.none()},
        )
        base_row, o1_row = run_sweep(spec).values
        assert base_row["traffic_total"] == (
            BootstrapModel(BASELINE_JUNG, MADConfig.none()).total_cost().traffic.total
        )
        assert o1_row["traffic_total"] == (
            BootstrapModel(BASELINE_JUNG, MADConfig(cache_o1=True))
            .total_cost()
            .traffic.total
        )
        assert o1_row["traffic_total"] < base_row["traffic_total"]

    def test_missing_params_rejected(self):
        spec = SweepSpec(
            name="broken",
            evaluator="bootstrap.cost",
            axes=(SweepAxis("cache_mb", (2.0,)),),
            context={"config": MADConfig.none()},
        )
        with pytest.raises(ValueError, match="params and config"):
            run_sweep(spec)

    def test_memoized_cost_reused(self):
        memo = Memo()
        first = memoized_bootstrap_cost(
            BASELINE_JUNG, MADConfig.none(), None, memo
        )
        second = memoized_bootstrap_cost(
            BASELINE_JUNG, MADConfig.none(), None, memo
        )
        assert first is second
        assert memo.stats() == (1, 1)


class TestBootstrapCostMemo:
    """The memo keys on the cost shape, not on the whole parameter set."""

    def test_log_q_shares_an_entry_and_dnum_does_not(self):
        memo = Memo()
        config = MADConfig.all()
        wide = memoized_bootstrap_cost(BASELINE_JUNG, config, None, memo)
        narrow_params = dataclasses.replace(BASELINE_JUNG, log_q=46)
        narrow = memoized_bootstrap_cost(narrow_params, config, None, memo)
        assert memo.stats() == (1, 1)
        assert narrow == wide
        assert narrow == BootstrapModel(narrow_params, config).total_cost()
        memoized_bootstrap_cost(
            dataclasses.replace(BASELINE_JUNG, dnum=2), config, None, memo
        )
        assert memo.stats() == (1, 2)

    def test_quick_table5_serial_misses_once_per_shape(self):
        spec = build_preset("table5", quick=True)
        shapes = {cost_shape(p) for p in spec.axes[0].values}
        assert (spec.size, len(shapes)) == (87, 24)
        outcome = run_sweep(spec)
        assert (outcome.memo_misses, outcome.memo_hits) == (24, 63)


class TestFig6Bar:
    @pytest.mark.parametrize("workload", ["lr", "resnet"])
    @pytest.mark.parametrize("design_name", list(PRIOR_DESIGNS))
    def test_grid_matches_serial_series(self, design_name, workload):
        from repro.apps import helr_training, resnet20_inference
        from repro.report.figures import generate_fig6_grid, generate_fig6_series

        design = PRIOR_DESIGNS[design_name]
        sizes = [32.0, 256.0]
        workload_for = {
            "lr": lambda p: helr_training(p, iterations=30),
            "resnet": resnet20_inference,
        }[workload]
        serial = generate_fig6_series(design, workload_for, sizes)
        grid = generate_fig6_grid(workload, [design], sizes)[design.name]
        assert grid == serial

    def test_unknown_workload_rejected(self):
        from repro.report.figures import generate_fig6_grid

        with pytest.raises(ValueError, match="workload"):
            generate_fig6_grid("svm", [PRIOR_DESIGNS["BTS"]], [32.0])


class TestPresets:
    def test_known_presets_build(self):
        for name in ("table5", "ablation-cache", "memsim-ladder"):
            spec = build_preset(name, quick=True)
            assert spec.size > 0

    def test_quick_is_smaller(self):
        assert (
            build_preset("table5", quick=True).size
            < build_preset("table5").size
        )

    def test_unknown_preset_rejected(self):
        with pytest.raises(KeyError, match="unknown sweep"):
            build_preset("nope")

    def test_ablation_preset_matches_committed_benchmark(self):
        from repro.sweep.presets import ABLATION_CACHE_SIZES

        spec = build_preset("ablation-cache")
        assert spec.axes[0].values == tuple(float(s) for s in ABLATION_CACHE_SIZES)


def _keys(spec):
    return [json.dumps(spec.point_key(point), sort_keys=True)
            for _, point in spec.points()]


@pytest.mark.parametrize("name", preset_names())
class TestEveryPreset:
    """Each named sweep: a stable spec under its own name, a quick grid
    that is a strict subset of the full one, rows that depend on neither
    tracing nor the memo, canonical point keys, a resource sample per
    point only when traced, and a report both validators accept."""

    def test_quick_spec_is_named_registered_and_stable(self, name):
        spec = build_preset(name, quick=True)
        assert spec.name == name
        get_evaluator(spec.evaluator)  # raises for an unregistered name
        assert spec.fingerprint() == build_preset(name, quick=True).fingerprint()

    def test_quick_grid_is_a_smaller_subset_of_the_full_grid(self, name):
        quick, full = build_preset(name, quick=True), build_preset(name)
        assert quick.size < full.size
        quick_keys = _keys(quick)
        assert len(set(quick_keys)) == quick.size
        assert set(quick_keys) <= set(_keys(full))

    def test_traced_rows_equal_untraced_rows(self, name):
        spec = build_preset(name, quick=True)
        with obs.capture() as (tracer, _registry):
            traced = run_sweep(spec)
        assert len(tracer.roots[0].children) == spec.size
        untraced = run_sweep(spec)
        assert json.dumps(_rows(traced)) == json.dumps(_rows(untraced))

    def test_report_keys_are_the_canonical_point_keys(self, name):
        spec = build_preset(name, quick=True)
        report = build_sweep_report(run_sweep(spec))
        assert [entry["index"] for entry in report["points"]] == list(range(spec.size))
        assert [entry["key"] for entry in report["points"]] == [
            spec.point_key(point) for _, point in spec.points()
        ]

    def test_untraced_points_open_no_profiled_span(self, name, monkeypatch):
        def metered(*args, **kwargs):
            raise AssertionError("an untraced sweep metered a point")

        monkeypatch.setattr("repro.sweep.engine.profiled_span", metered)
        spec = build_preset(name, quick=True)
        assert len(run_sweep(spec).values) == spec.size

    def test_traced_points_carry_a_resource_sample(self, name):
        spec = build_preset(name, quick=True)
        with obs.capture() as (tracer, _registry):
            run_sweep(spec)
        (run,) = tracer.roots
        assert [point.meta["index"] for point in run.children] == list(range(spec.size))
        assert all("resource" in point.meta for point in run.children)

    def test_report_validates_with_both_validators(self, name):
        jsonschema = pytest.importorskip("jsonschema")
        spec = build_preset(name, quick=True)
        report = json.loads(json.dumps(build_sweep_report(run_sweep(spec))))
        schema.validate(report, SWEEP_REPORT)
        jsonschema.validate(report, SWEEP_REPORT.spec)
        assert len(report["points"]) == spec.size

    def test_rows_equal_a_reference_loop_with_a_fresh_memo_per_point(self, name):
        spec = build_preset(name, quick=True)
        evaluator = get_evaluator(spec.evaluator)
        reference = [
            evaluator.row(evaluator.fn(point, spec.context, Memo()), point)
            for _, point in spec.points()
        ]
        assert json.dumps(_rows(run_sweep(spec))) == json.dumps(reference)
