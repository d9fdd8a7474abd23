"""Differential cost attribution: alignment, deltas, schemas, rendering."""

import json

import pytest

from repro.obs import Tracer, schema, state
from repro.obs.diff import (
    COST_DIFF,
    WorkloadMismatchError,
    build_overlay_trace,
    diff_run_reports,
    render_attribution_table,
)
from repro.obs.export import build_run_report
from repro.params import BASELINE_JUNG
from repro.perf import BootstrapModel, MADConfig
from repro.perf.events import CostReport, MemTraffic, OpCount


def traced_bootstrap_report(config, workload="bootstrap"):
    with state.capture() as (tracer, registry):
        BootstrapModel(BASELINE_JUNG, config).ledger()
    return build_run_report(
        tracer,
        registry,
        command="test",
        workload=workload,
        params="baseline",
    )


def report_from(tracer, workload="synthetic"):
    return build_run_report(tracer, command="test", workload=workload)


def cost(ops=0, ct_read=0, ct_write=0, key_read=0, pt_read=0):
    return CostReport(
        OpCount(mults=ops),
        MemTraffic(
            ct_read=ct_read,
            ct_write=ct_write,
            key_read=key_read,
            pt_read=pt_read,
        ),
    )


class TestIdenticalRuns:
    def test_diff_is_empty(self):
        base = traced_bootstrap_report(MADConfig.none())
        other = traced_bootstrap_report(MADConfig.none())
        diff = diff_run_reports(base, other)
        assert diff["identical"] is True
        assert diff["spans"] == []
        assert diff["metrics"]["counters"] == {}
        assert not any(diff["totals"]["delta"]["ops"].values())
        assert not any(diff["totals"]["delta"]["traffic"].values())

    def test_empty_diff_validates(self):
        base = traced_bootstrap_report(MADConfig.none())
        diff = diff_run_reports(base, base)
        schema.validate(diff, COST_DIFF)
        json.dumps(diff)

    def test_wall_clock_never_breaks_identity(self):
        # Same model, different timings: still analytically identical.
        base = traced_bootstrap_report(MADConfig.none())
        other = traced_bootstrap_report(MADConfig.none())
        assert base["wall_seconds"] != other["wall_seconds"] or True
        assert diff_run_reports(base, other)["identical"]

    def test_render_says_identical(self):
        base = traced_bootstrap_report(MADConfig.none())
        text = render_attribution_table(diff_run_reports(base, base))
        assert "identical" in text


class TestMadToggleAttribution:
    def test_beta_digit_reuse_attributes_to_key_switch_spans(self):
        """Toggling O(beta)-digit reuse: >=90% of the traffic delta must
        land on the key-switch-bearing PtMatVecMult spans."""
        base = traced_bootstrap_report(MADConfig(cache_o1=True))
        other = traced_bootstrap_report(
            MADConfig(cache_o1=True, cache_beta=True)
        )
        diff = diff_run_reports(base, other)
        assert not diff["identical"]
        key_switch_share = sum(
            entry["traffic_share"]
            for entry in diff["spans"]
            if "CoeffToSlot" in entry["path"] or "SlotToCoeff" in entry["path"]
        )
        assert key_switch_share >= 0.9
        # The stream totals must agree with the model-level delta.
        delta = diff["totals"]["delta"]["traffic"]
        assert delta["total"] < 0  # the optimization reduces traffic
        assert delta["total"] == sum(delta[s] for s in
                                     ("ct_read", "ct_write", "key_read", "pt_read"))

    def test_key_compression_delta_is_pure_key_read(self):
        base = traced_bootstrap_report(
            MADConfig.caching_only().with_(
                mod_down_merge=True, mod_down_hoist=True
            )
        )
        other = traced_bootstrap_report(MADConfig.all())
        diff = diff_run_reports(base, other)
        delta = diff["totals"]["delta"]["traffic"]
        assert delta["key_read"] < 0
        assert delta["ct_read"] == 0
        assert delta["ct_write"] == 0
        assert delta["pt_read"] == 0
        assert delta["total"] == delta["key_read"]

    def test_span_deltas_sum_to_total_delta(self):
        base = traced_bootstrap_report(MADConfig.none())
        other = traced_bootstrap_report(MADConfig.all())
        diff = diff_run_reports(base, other)
        span_sum = sum(e["traffic"]["delta"]["total"] for e in diff["spans"])
        assert span_sum == diff["totals"]["delta"]["traffic"]["total"]
        ops_sum = sum(e["ops"]["delta"]["total"] for e in diff["spans"])
        assert ops_sum == diff["totals"]["delta"]["ops"]["total"]

    def test_metric_counter_deltas(self):
        base = traced_bootstrap_report(MADConfig.none())
        other = traced_bootstrap_report(MADConfig.all())
        diff = diff_run_reports(base, other)
        counters = diff["metrics"]["counters"]
        # mod_down_hoist changes how many ksk inner products run.
        assert counters  # some instrumented call-site count changed
        for row in counters.values():
            assert row["delta"] == row["other"] - row["base"]
            assert row["delta"] != 0


class TestWorkloadMismatch:
    def test_raises_clear_error(self):
        base = traced_bootstrap_report(MADConfig.none(), workload="bootstrap")
        other = traced_bootstrap_report(MADConfig.none(), workload="helr")
        with pytest.raises(WorkloadMismatchError) as excinfo:
            diff_run_reports(base, other)
        message = str(excinfo.value)
        assert "bootstrap" in message and "helr" in message
        assert "--force" in message

    def test_force_allows_mismatch(self):
        base = traced_bootstrap_report(MADConfig.none(), workload="bootstrap")
        other = traced_bootstrap_report(MADConfig.none(), workload="helr")
        diff = diff_run_reports(base, other, require_same_workload=False)
        assert diff["base"]["workload"] == "bootstrap"
        assert diff["other"]["workload"] == "helr"

    def test_non_report_rejected(self):
        base = traced_bootstrap_report(MADConfig.none())
        with pytest.raises(ValueError, match="missing required key 'schema'"):
            diff_run_reports(base, {"spans": []})
        with pytest.raises(ValueError, match="schema: expected"):
            diff_run_reports(base, {"schema": "x"})
        legacy = dict(base, schema="repro.obs.run_report/v1")
        with pytest.raises(ValueError, match="schema: expected"):
            diff_run_reports(legacy, base)


class TestStructuralAlignment:
    def test_renamed_span_is_aligned_positionally(self):
        base_tracer, other_tracer = Tracer(), Tracer()
        with base_tracer.span("Root"):
            with base_tracer.span("Phase"):
                base_tracer.record_cost(cost(ops=10, ct_read=100))
        with other_tracer.span("Root"):
            with other_tracer.span("PhaseRenamed"):
                other_tracer.record_cost(cost(ops=10, ct_read=160))
        diff = diff_run_reports(
            report_from(base_tracer), report_from(other_tracer)
        )
        (entry,) = diff["spans"]
        assert entry["status"] == "renamed"
        assert entry["base_name"] == "Phase"
        assert entry["other_name"] == "PhaseRenamed"
        assert entry["path"] == "Root/Phase"  # base name is canonical
        assert entry["traffic"]["delta"]["ct_read"] == 60

    def test_rename_tolerance_can_be_disabled(self):
        base_tracer, other_tracer = Tracer(), Tracer()
        with base_tracer.span("Root"):
            with base_tracer.span("Phase"):
                base_tracer.record_cost(cost(ops=10, ct_read=100))
        with other_tracer.span("Root"):
            with other_tracer.span("PhaseRenamed"):
                other_tracer.record_cost(cost(ops=10, ct_read=160))
        diff = diff_run_reports(
            report_from(base_tracer),
            report_from(other_tracer),
            rename_tolerance=False,
        )
        statuses = sorted(e["status"] for e in diff["spans"])
        assert statuses == ["added", "removed"]

    def test_added_and_removed_spans_carry_full_cost(self):
        base_tracer, other_tracer = Tracer(), Tracer()
        with base_tracer.span("Root"):
            with base_tracer.span("Kept"):
                base_tracer.record_cost(cost(ops=1, ct_read=10))
            with base_tracer.span("Dropped"):
                base_tracer.record_cost(cost(ops=2, key_read=20))
        with other_tracer.span("Root"):
            with other_tracer.span("Kept"):
                other_tracer.record_cost(cost(ops=1, ct_read=10))
            with other_tracer.span("Dropped"):
                other_tracer.record_cost(cost(ops=2, key_read=20))
            with other_tracer.span("New"):
                other_tracer.record_cost(cost(ops=3, pt_read=30))
        diff = diff_run_reports(
            report_from(base_tracer), report_from(other_tracer)
        )
        (entry,) = diff["spans"]
        assert entry["status"] == "added"
        assert entry["path"] == "Root/New"
        assert entry["traffic"]["delta"]["pt_read"] == 30
        assert entry["ops"]["delta"]["total"] == 3

    def test_repeated_siblings_align_by_occurrence(self):
        def build(costs):
            tracer = Tracer()
            with tracer.span("Root"):
                for c in costs:
                    with tracer.span("Iter"):
                        tracer.record_cost(c)
            return report_from(tracer)

        base = build([cost(ct_read=10), cost(ct_read=20), cost(ct_read=30)])
        other = build([cost(ct_read=10), cost(ct_read=25), cost(ct_read=30)])
        diff = diff_run_reports(base, other)
        (entry,) = diff["spans"]
        assert entry["path"] == "Root/Iter#2"
        assert entry["traffic"]["delta"]["ct_read"] == 5

    def test_nested_rename_children_still_align(self):
        base_tracer, other_tracer = Tracer(), Tracer()
        with base_tracer.span("Root"):
            with base_tracer.span("Old"):
                with base_tracer.span("Leaf"):
                    base_tracer.record_cost(cost(ct_write=7))
        with other_tracer.span("Root"):
            with other_tracer.span("New"):
                with other_tracer.span("Leaf"):
                    other_tracer.record_cost(cost(ct_write=9))
        diff = diff_run_reports(
            report_from(base_tracer), report_from(other_tracer)
        )
        by_path = {e["path"]: e for e in diff["spans"]}
        assert by_path["Root/Old"]["status"] == "renamed"
        leaf = by_path["Root/Old/Leaf"]
        assert leaf["status"] == "matched"
        assert leaf["traffic"]["delta"]["ct_write"] == 2


class TestCostDiffDocument:
    def test_sorted_by_traffic_magnitude(self):
        base = traced_bootstrap_report(MADConfig.none())
        other = traced_bootstrap_report(MADConfig.all())
        diff = diff_run_reports(base, other)
        magnitudes = [
            abs(e["traffic"]["delta"]["total"]) for e in diff["spans"]
        ]
        assert magnitudes == sorted(magnitudes, reverse=True)

    def test_traffic_shares_sum_to_one(self):
        base = traced_bootstrap_report(MADConfig.none())
        other = traced_bootstrap_report(MADConfig.all())
        diff = diff_run_reports(base, other)
        assert sum(e["traffic_share"] for e in diff["spans"]) == pytest.approx(1.0)

    def test_write_load_roundtrip(self, tmp_path):
        base = traced_bootstrap_report(MADConfig.none())
        other = traced_bootstrap_report(MADConfig.caching_only())
        diff = diff_run_reports(base, other)
        path = tmp_path / "cost_diff.json"
        schema.write(diff, COST_DIFF, path)
        loaded = schema.load(path, COST_DIFF)
        assert loaded["schema"] == COST_DIFF.id
        assert loaded == json.loads(json.dumps(diff))


class TestRendering:
    def test_attribution_table_contents(self):
        base = traced_bootstrap_report(MADConfig.none())
        other = traced_bootstrap_report(MADConfig.all())
        diff = diff_run_reports(base, other)
        text = render_attribution_table(diff, top=5)
        assert "Stream" in text and "key_read" in text
        assert "Span path" in text and "share" in text
        assert "more changed spans" in text  # truncation notice
        assert "Counter" in text

    def test_overlay_trace_two_processes(self):
        base = traced_bootstrap_report(MADConfig.none())
        other = traced_bootstrap_report(MADConfig.all())
        diff = diff_run_reports(base, other)
        overlay = build_overlay_trace(base, other, diff)
        json.dumps(overlay)
        events = overlay["traceEvents"]
        pids = {e["pid"] for e in events}
        assert pids == {1, 2}
        complete = [e for e in events if e["ph"] == "X"]
        assert len(complete) == len(base["spans"]) + len(other["spans"])
        deltas = [e for e in complete if "delta" in e["args"]]
        assert deltas and all(e["pid"] == 2 for e in deltas)
