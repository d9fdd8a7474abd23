"""Chrome trace, flat profile, roofline attribution and run_report.json."""

import json

import pytest

from repro.hardware import PRIOR_DESIGNS
from repro.obs import MetricsRegistry, Tracer, schema, state
from repro.obs.export import (
    RUN_REPORT,
    attribute_runtime,
    build_run_report,
    compute_span_paths,
    cost_dict,
    render_flat_profile,
    to_chrome_trace,
    write_chrome_trace,
)
from repro.params import BASELINE_JUNG
from repro.perf import BootstrapModel, MADConfig
from repro.perf.events import CostReport, MemTraffic, OpCount

BOOTSTRAP_PHASES = ("ModRaise", "CoeffToSlot", "EvalMod", "SlotToCoeff")


@pytest.fixture(scope="module")
def traced_bootstrap():
    """One traced bootstrap run: (tracer, registry, untraced total)."""
    model = BootstrapModel(BASELINE_JUNG, MADConfig.none())
    untraced = model.total_cost()
    with state.capture() as (tracer, registry):
        model.ledger()
    return tracer, registry, untraced


class TestChromeTrace:
    def test_structure(self, traced_bootstrap):
        tracer, _, _ = traced_bootstrap
        doc = to_chrome_trace(tracer, metadata={"params": "baseline"})
        assert doc["displayTimeUnit"] == "ms"
        assert doc["otherData"] == {"params": "baseline"}
        events = doc["traceEvents"]
        assert events[0]["ph"] == "M"
        complete = [e for e in events if e["ph"] == "X"]
        assert len(complete) == sum(1 for _ in tracer.spans())
        for event in complete:
            assert event["ts"] >= 0 and event["dur"] >= 0
            assert event["cat"] == "repro"

    def test_covers_all_bootstrap_phases(self, traced_bootstrap):
        tracer, _, _ = traced_bootstrap
        names = {e["name"] for e in to_chrome_trace(tracer)["traceEvents"]}
        for phase in BOOTSTRAP_PHASES:
            assert phase in names

    def test_costed_spans_carry_cost_args(self, traced_bootstrap):
        tracer, _, untraced = traced_bootstrap
        events = to_chrome_trace(tracer)["traceEvents"]
        costed = [e for e in events if e["ph"] == "X" and "cost" in e["args"]]
        assert costed
        assert sum(e["args"]["ops"] for e in costed) == untraced.ops.total
        assert sum(e["args"]["bytes"] for e in costed) == untraced.traffic.total

    def test_is_json_serializable(self, traced_bootstrap):
        tracer, _, _ = traced_bootstrap
        json.dumps(to_chrome_trace(tracer))

    def test_write_to_disk(self, traced_bootstrap, tmp_path):
        tracer, _, _ = traced_bootstrap
        path = tmp_path / "trace.json"
        write_chrome_trace(tracer, str(path))
        assert json.loads(path.read_text())["traceEvents"]

    def test_unserializable_meta_falls_back_to_repr(self):
        tracer = Tracer()
        with tracer.span("s", obj=object()):
            pass
        doc = to_chrome_trace(tracer)
        json.dumps(doc)  # must not raise
        assert "object" in doc["traceEvents"][1]["args"]["obj"]


class TestFlatProfile:
    def test_totals_match_model(self, traced_bootstrap):
        tracer, _, untraced = traced_bootstrap
        text = render_flat_profile(tracer)
        assert "Span" in text and "Ops%" in text
        total_line = text.splitlines()[-1]
        assert f"{untraced.giga_ops():9.2f}" in total_line
        assert "100.0%" in total_line

    def test_long_names_are_truncated(self):
        tracer = Tracer()
        with tracer.span("x" * 60):
            pass
        for line in render_flat_profile(tracer).splitlines():
            if "…" in line:
                break
        else:
            pytest.fail("expected a truncated span label")

    def test_empty_tracer(self):
        text = render_flat_profile(Tracer())
        assert "Total" in text


class TestAttributeRuntime:
    def test_annotates_costed_spans(self, traced_bootstrap):
        tracer, _, untraced = traced_bootstrap
        design = PRIOR_DESIGNS["BTS"]
        overall = attribute_runtime(tracer, design)
        assert overall is not None
        assert overall["design"] == design.name
        assert overall["roofline_seconds"] > 0
        costed = [s for s in tracer.spans() if s.total_cost() is not None]
        assert costed
        for span in costed:
            assert span.meta["design"] == design.name
            assert span.meta["bound"] in ("compute", "memory")
            assert span.meta["roofline_seconds"] == pytest.approx(
                max(span.meta["compute_seconds"], span.meta["memory_seconds"])
            )

    def test_empty_tracer_returns_none(self):
        assert attribute_runtime(Tracer(), PRIOR_DESIGNS["BTS"]) is None


class TestRunReport:
    def test_build_and_validate(self, traced_bootstrap):
        tracer, registry, untraced = traced_bootstrap
        report = build_run_report(
            tracer,
            registry,
            command="trace bootstrap",
            workload="bootstrap",
            params="baseline",
            config={"cache_o1": False},
        )
        schema.validate(report, RUN_REPORT)
        json.dumps(report)
        assert report["schema"] == RUN_REPORT.id
        assert report["totals"]["ops"] == {
            "mults": untraced.ops.mults,
            "adds": untraced.ops.adds,
            "total": untraced.ops.total,
        }
        assert report["totals"]["traffic"]["total"] == untraced.traffic.total
        assert len(report["spans"]) == sum(1 for _ in tracer.spans())
        assert report["metrics"]["counters"]

    def test_empty_tracer_report_is_valid(self):
        report = build_run_report(Tracer(), MetricsRegistry(), command="x")
        schema.validate(report, RUN_REPORT)
        assert report["totals"]["ops"]["total"] == 0
        assert report["totals"]["arithmetic_intensity"] == 0.0

    def test_all_compute_run_serializes_infinite_ai_as_minus_one(self):
        tracer = Tracer()
        with tracer.span("s"):
            tracer.record_cost(CostReport(OpCount(mults=5), MemTraffic()))
        report = build_run_report(tracer, MetricsRegistry(), command="x")
        schema.validate(report, RUN_REPORT)
        json.dumps(report)  # inf would not survive strict JSON
        assert report["totals"]["arithmetic_intensity"] == -1.0

    def test_cost_dict_roundtrip(self):
        cost = CostReport(OpCount(3, 4), MemTraffic(1, 2, 3, 4))
        payload = cost_dict(cost)
        assert payload["ops"]["total"] == 7
        assert payload["traffic"]["total"] == 10
        assert payload["arithmetic_intensity"] == cost.arithmetic_intensity


class TestSpanPaths:
    def test_repeated_siblings_are_disambiguated(self):
        paths = compute_span_paths(
            [("Root", 0), ("Iter", 1), ("Iter", 1), ("Iter", 1)]
        )
        assert paths == ["Root", "Root/Iter", "Root/Iter#2", "Root/Iter#3"]

    def test_occurrence_counts_reset_per_parent(self):
        paths = compute_span_paths(
            [("A", 0), ("Leaf", 1), ("B", 0), ("Leaf", 1)]
        )
        assert paths == ["A", "A/Leaf", "B", "B/Leaf"]

    def test_nested_repeats(self):
        paths = compute_span_paths(
            [("Root", 0), ("Phase", 1), ("Step", 2), ("Phase", 1), ("Step", 2)]
        )
        assert paths[3] == "Root/Phase#2"
        assert paths[4] == "Root/Phase#2/Step"

    def test_forest_roots_are_disambiguated(self):
        paths = compute_span_paths([("Run", 0), ("Run", 0)])
        assert paths == ["Run", "Run#2"]

    def test_depth_jump_rejected(self):
        with pytest.raises(ValueError, match="depth"):
            compute_span_paths([("Root", 0), ("Orphan", 2)])

    def test_paths_are_unique_and_stable_in_real_trace(self, traced_bootstrap):
        tracer, registry, _ = traced_bootstrap
        report = build_run_report(tracer, registry, command="x")
        paths = [span["path"] for span in report["spans"]]
        assert len(paths) == len(set(paths))
        # A second identical run must produce the identical path sequence.
        from repro.obs import state
        from repro.params import BASELINE_JUNG
        from repro.perf import BootstrapModel, MADConfig

        with state.capture() as (tracer2, registry2):
            BootstrapModel(BASELINE_JUNG, MADConfig.none()).ledger()
        report2 = build_run_report(tracer2, registry2, command="x")
        assert [s["path"] for s in report2["spans"]] == paths

    def test_no_volatile_values_in_bootstrap_span_names(self, traced_bootstrap):
        """Labels must be constant across runs: indices/limb counts belong
        in span attributes (meta), never in the name."""
        tracer, _, _ = traced_bootstrap
        for span in tracer.spans():
            assert not any(ch.isdigit() for ch in span.name), span.name
