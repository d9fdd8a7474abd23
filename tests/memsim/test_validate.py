"""Differential validation harness: comparison, report, schema."""

import pytest

from repro.memsim.accounting import SimStats
from repro.memsim.simulator import SimResult
from repro.memsim.validate import (
    DEFAULT_TOLERANCE,
    EXPECTED_FIT_BREAKS,
    LADDER_PRIMITIVES,
    LADDER_RUNS,
    MEMSIM_REPORT,
    compare_traffic,
    ladder_sweep_spec,
    render_report,
    run_validation,
    validate_primitive,
)
from repro.memsim.schedules import ScheduleBuilder
from repro.obs import schema
from repro.params import BASELINE_JUNG
from repro.perf.events import MemTraffic
from repro.perf.optimizations import MADConfig


def result_with(traffic, pin_failures=0):
    return SimResult(
        traffic=traffic,
        stats=SimStats(pin_failures=pin_failures),
        capacity_blocks=30,
        block_bytes=BASELINE_JUNG.limb_bytes,
        policy="pin",
    )


class TestCompareTraffic:
    def test_exact_match_is_within_tolerance(self):
        traffic = MemTraffic(ct_read=100, ct_write=50, key_read=25, pt_read=5)
        out = compare_traffic(traffic, result_with(traffic), 0.05)
        assert out["within_tolerance"]
        assert not out["fit_broken"]
        assert out["max_abs_rel_error"] == 0.0
        for field in ("ct_read", "ct_write", "key_read", "pt_read"):
            assert out["streams"][field]["rel_error"] == 0.0

    def test_excess_simulated_traffic_breaks_the_fit(self):
        analytical = MemTraffic(ct_read=100)
        simulated = MemTraffic(ct_read=150)
        out = compare_traffic(analytical, result_with(simulated), 0.05)
        assert out["fit_broken"]
        assert not out["within_tolerance"]
        assert out["streams"]["ct_read"]["rel_error"] == pytest.approx(0.5)

    def test_simulated_below_analytical_is_not_a_fit_break(self):
        # Under-counting means the schedule is *wrong* (out of tolerance)
        # but not that a fit threshold broke.
        analytical = MemTraffic(ct_read=100)
        simulated = MemTraffic(ct_read=10)
        out = compare_traffic(analytical, result_with(simulated), 0.05)
        assert not out["fit_broken"]
        assert not out["within_tolerance"]

    def test_zero_analytical_nonzero_simulated_flagged(self):
        analytical = MemTraffic()
        simulated = MemTraffic(ct_read=1)
        out = compare_traffic(analytical, result_with(simulated), 0.05)
        assert out["fit_broken"]
        assert out["streams"]["ct_read"]["rel_error"] == -1.0  # inf marker

    def test_pin_failures_propagate(self):
        traffic = MemTraffic(ct_read=1)
        out = compare_traffic(traffic, result_with(traffic, 7), 0.05)
        assert out["pin_failures"] == 7


class TestValidatePrimitive:
    def test_fitting_primitive_passes(self):
        builder = ScheduleBuilder(BASELINE_JUNG, MADConfig.caching_only())
        entry = validate_primitive(builder, "mult", 192.0)
        assert entry["passed"]
        assert not entry["fit_broken"]
        assert entry["max_abs_rel_error"] <= DEFAULT_TOLERANCE

    def test_expected_break_must_materialize(self):
        builder = ScheduleBuilder(BASELINE_JUNG, MADConfig.caching_only())
        # mult fits comfortably at 192 MB: a stale break expectation fails.
        entry = validate_primitive(
            builder, "mult", 192.0, expected_break_reason="stale"
        )
        assert not entry["passed"]
        assert entry["expected_fit_break"]

    def test_known_matvec_break_at_32mb(self):
        """The documented O(beta) x limb-reorder composition break."""
        builder = ScheduleBuilder(BASELINE_JUNG, MADConfig.caching_only())
        entry = validate_primitive(
            builder,
            "pt_mat_vec_mult",
            32.0,
            expected_break_reason=EXPECTED_FIT_BREAKS[
                ("Limb Re-order", 32.0, "pt_mat_vec_mult")
            ],
        )
        assert entry["passed"]  # expected and it materialized
        assert entry["fit_broken"]
        assert entry["pin_failures"] > 0


class TestRunValidation:
    @pytest.fixture(scope="class")
    def report(self):
        return run_validation()

    def test_full_ladder_passes(self, report):
        assert report["passed"]
        assert report["schema"] == MEMSIM_REPORT.id
        assert len(report["runs"]) == len(LADDER_RUNS)

    def test_every_ladder_primitive_present(self, report):
        for run in report["runs"]:
            names = {e["primitive"] for e in run["primitives"]}
            assert names == set(LADDER_PRIMITIVES)

    def test_expected_breaks_are_reported_as_breaks(self, report):
        rung5 = next(
            run
            for run in report["runs"]
            if run["label"] == "Limb Re-order" and run["cache_mb"] == 32.0
        )
        broken = {
            e["primitive"] for e in rung5["primitives"] if e["fit_broken"]
        }
        assert broken == {"pt_mat_vec_mult", "bootstrap"}

    def test_big_cache_rung_is_fully_exact(self, report):
        rung = next(
            run for run in report["runs"] if run["cache_mb"] == 192.0
        )
        for entry in rung["primitives"]:
            assert entry["max_abs_rel_error"] == 0.0, entry["primitive"]
            assert entry["pin_failures"] == 0, entry["primitive"]

    def test_report_validates_against_schema(self, report):
        schema.validate(report, MEMSIM_REPORT)  # must not raise

    @pytest.mark.parametrize("name", LADDER_PRIMITIVES)
    def test_cells_equal_the_primitive_validated_directly(self, report, name):
        rungs = ladder_sweep_spec().axes[0].values
        assert [run["label"] for run in report["runs"]] == [r[0] for r in rungs]
        for run, (label, config, cache_mb) in zip(report["runs"], rungs):
            (cell,) = [e for e in run["primitives"] if e["primitive"] == name]
            assert cell == validate_primitive(
                ScheduleBuilder(BASELINE_JUNG, config),
                name,
                cache_mb,
                expected_break_reason=EXPECTED_FIT_BREAKS.get(
                    (label, cache_mb, name)
                ),
            )

    def test_render_mentions_rungs_and_verdict(self, report):
        text = render_report(report)
        assert "Limb Re-order" in text
        assert "fit break (expected)" in text
        assert "overall: PASS" in text

    def test_traced_validation_has_one_point_span_per_cell(self):
        from repro.obs import state as obs

        runs = [("Baseline", MADConfig.none(), 2.0), ("Big", MADConfig.none(), 192.0)]
        with obs.capture() as (tracer, _registry):
            report = run_validation(runs=runs, primitives=["mult", "rotate"])
        (validate,) = tracer.roots
        assert validate.name == "memsim:validate"
        (sweep,) = validate.children
        assert sweep.name == "sweep:run"
        assert [p.meta["index"] for p in sweep.children] == [0, 1, 2, 3]
        assert report == run_validation(runs=runs, primitives=["mult", "rotate"])

    def test_primitive_subset_runs(self):
        report = run_validation(
            runs=[("Baseline", MADConfig.none(), 2.0)], primitives=["mult"]
        )
        assert report["passed"]
        assert [e["primitive"] for e in report["runs"][0]["primitives"]] == [
            "mult"
        ]
