"""Baseline store, exact cost gating, and the bench regression harness."""

import copy
import json
from pathlib import Path

import pytest

from repro.obs import schema, state
from repro.obs.baseline import (
    DEFAULT_BASELINE_DIR,
    GATED_TOTALS,
    BaselineStore,
    Regression,
    baseline_key,
    compare_reports,
    normalize_report,
)
from repro.obs.bench import (
    DEFAULT_SPECS,
    BenchSpec,
    primitive_micro_cost,
    run_bench,
    run_spec,
)
from repro.obs.export import RUN_REPORT, build_run_report
from repro.params import BASELINE_JUNG
from repro.perf import BootstrapModel, MADConfig


def bootstrap_report(config=None):
    config = config if config is not None else MADConfig.none()
    with state.capture() as (tracer, registry):
        BootstrapModel(BASELINE_JUNG, config).ledger()
    return build_run_report(
        tracer, registry, command="test", workload="bootstrap", params="baseline"
    )


class TestBaselineKey:
    def test_contains_all_dimensions(self):
        key = baseline_key("bootstrap", "optimal", "all", 256.0, "BTS")
        assert key == "bootstrap__optimal__all__cache256__bts"

    def test_no_cache_no_design(self):
        assert baseline_key("micro", "baseline", "none") == (
            "micro__baseline__none__nocache"
        )

    def test_filename_safe(self):
        key = baseline_key("ResNet-20 (CIFAR/10)", "p", "c")
        assert "/" not in key and " " not in key and "(" not in key


class TestNormalization:
    def test_zeroes_wall_clock_only(self):
        report = bootstrap_report()
        normalized = normalize_report(report)
        assert normalized["wall_seconds"] == 0.0
        assert all(
            s["start_us"] == 0.0 and s["duration_us"] == 0.0
            for s in normalized["spans"]
        )
        # Analytical content untouched.
        assert normalized["totals"] == report["totals"]
        assert normalized["metrics"] == report["metrics"]
        # Input not mutated.
        assert report["wall_seconds"] > 0.0

    def test_normalized_report_still_validates(self):
        schema.validate(normalize_report(bootstrap_report()), RUN_REPORT)


class TestBaselineStore:
    def test_roundtrip(self, tmp_path):
        store = BaselineStore(str(tmp_path))
        report = bootstrap_report()
        path = store.save("k", report)
        assert path.is_file()
        loaded = store.load("k")
        assert loaded == normalize_report(report)
        assert store.exists("k") and not store.exists("missing")
        assert store.keys() == ["k"]

    def test_load_missing_returns_none(self, tmp_path):
        assert BaselineStore(str(tmp_path)).load("nope") is None

    def test_saved_files_are_deterministic(self, tmp_path):
        store = BaselineStore(str(tmp_path))
        a = store.save("a", bootstrap_report()).read_text()
        b = store.save("b", bootstrap_report()).read_text()
        assert a == b  # timing noise normalized away

    def test_sweep_fixture_refresh_is_idempotent(self):
        # A sweep run records no wall-clock gauge, so refreshing the
        # fixture twice writes the same bytes.
        (spec,) = [s for s in DEFAULT_SPECS if s.name == "sweep__baseline__all__nocache"]
        first, second = (normalize_report(run_spec(spec)) for _ in range(2))
        assert json.dumps(first, sort_keys=True) == json.dumps(second, sort_keys=True)


class TestCompareReports:
    def test_identical_reports_pass(self):
        report = bootstrap_report()
        comparison = compare_reports(normalize_report(report), report)
        assert comparison.ok
        assert comparison.diff is None
        assert "ok" in comparison.describe()

    def test_improvement_is_not_regression(self):
        baseline = bootstrap_report(MADConfig.none())
        improved = bootstrap_report(MADConfig.all())
        comparison = compare_reports(baseline, improved)
        assert comparison.ok
        assert "traffic.total" in comparison.improvements
        assert comparison.diff is not None  # attribution still available

    def test_cost_growth_is_regression_with_attribution(self):
        baseline = bootstrap_report(MADConfig.all())
        current = bootstrap_report(MADConfig.none())  # strictly worse
        comparison = compare_reports(baseline, current)
        assert not comparison.ok
        metrics = {r.metric for r in comparison.regressions}
        assert "traffic.total" in metrics
        text = comparison.describe()
        assert "REGRESSION" in text
        assert "Span path" in text  # attribution table names the spans

    def test_one_op_of_growth_is_a_regression(self):
        # Costs are exact integers, so the gate has no slack.
        current = bootstrap_report()
        baseline = normalize_report(current)
        for key in ("mults", "total"):
            baseline["totals"]["ops"][key] -= 1
        comparison = compare_reports(baseline, current)
        metrics = [r.metric for r in comparison.regressions]
        assert metrics == ["ops.mults", "ops.total"]
        mults = current["totals"]["ops"]["mults"]
        assert comparison.regressions[0].describe() == (
            f"ops.mults: {mults - 1:,} -> {mults:,} (+0.00%)"
        )

    @pytest.mark.parametrize(
        "label, section, key", GATED_TOTALS, ids=[label for label, *_ in GATED_TOTALS]
    )
    def test_each_total_is_gated_on_its_own(self, label, section, key):
        # One unit of growth in any one total is a regression naming that
        # total alone, whatever the other totals do.
        current = bootstrap_report()
        baseline = normalize_report(current)
        baseline["totals"][section][key] -= 1
        comparison = compare_reports(baseline, current)
        assert [r.metric for r in comparison.regressions] == [label]
        assert not comparison.improvements

    @pytest.mark.parametrize(
        "label, section, key", GATED_TOTALS, ids=[label for label, *_ in GATED_TOTALS]
    )
    def test_each_total_that_shrinks_is_an_improvement(self, label, section, key):
        current = bootstrap_report()
        baseline = normalize_report(current)
        baseline["totals"][section][key] += 1
        comparison = compare_reports(baseline, current)
        assert comparison.ok
        assert comparison.improvements == [label]
        assert comparison.describe().split("\n")[0] == (
            f"bootstrap: ok (improved: {label})"
        )

    def test_growth_from_zero_reads_as_infinite(self):
        assert Regression("traffic.pt_read", 0, 4096).describe() == (
            "traffic.pt_read: 0 -> 4,096 (+inf%)"
        )

    def test_identical_report_reads_costs_unchanged(self):
        report = bootstrap_report()
        comparison = compare_reports(normalize_report(report), report)
        assert comparison.describe() == "bootstrap: ok (costs unchanged)"

    def test_counter_drift_is_named_but_not_gated(self):
        fixture = normalize_report(bootstrap_report())
        current = copy.deepcopy(fixture)
        assert current["metrics"]["counters"]["perf.primitives.rotate"] == 6
        current["metrics"]["counters"]["perf.primitives.rotate"] = 30
        comparison = compare_reports(fixture, current)
        assert comparison.ok
        assert not comparison.improvements
        headline, *drift = comparison.describe().split("\n")
        assert headline == "bootstrap: ok (costs unchanged)"
        assert drift[0] == "  drift: counter perf.primitives.rotate 6 -> 30"
        assert not any("span entries" in line for line in drift)
        assert "repro bench --update" in drift[-1]

    @pytest.mark.parametrize(
        "stale, line",
        [
            (lambda doc: doc["metrics"]["gauges"].update({"sweep.jobs": 2.0}),
             "gauge sweep.jobs 2.0 -> absent"),
            (lambda doc: doc["metrics"]["counters"].update({"sweep.points.reused": 0}),
             "counter sweep.points.reused 0 -> absent"),
            (lambda doc: doc["metrics"]["histograms"].update(
                {"sweep.chunk_seconds": {"count": 1, "sum": 0.5}}),
             'histogram sweep.chunk_seconds {"count": 1, "sum": 0.5} -> absent'),
            (lambda doc: doc["spans"][0]["meta"].update({"jobs": 2}),
             "span Bootstrap meta jobs 2 -> absent"),
        ],
        ids=["gauge", "zero-counter", "histogram", "span-meta"],
    )
    def test_stale_fixture_field_is_named_as_drift(self, stale, line):
        fresh = bootstrap_report()
        fixture = normalize_report(fresh)
        stale(fixture)
        comparison = compare_reports(fixture, fresh)
        assert comparison.ok
        headline, *drift = comparison.describe().split("\n")
        assert headline == "bootstrap: ok (costs unchanged)"
        assert drift[0] == f"  drift: {line}"
        assert "repro bench --update" in drift[-1]

    def test_host_measurements_never_read_as_drift(self):
        # A fresh run's resource samples differ on every run; the fixture
        # holds them normalized, and so does the drift comparison.
        fresh = bootstrap_report()
        fresh["spans"][0]["meta"]["resource"] = {"rss_peak_bytes": 1 << 20}
        comparison = compare_reports(normalize_report(fresh), fresh)
        assert comparison.describe() == "bootstrap: ok (costs unchanged)"


class TestCommittedFixtures:
    """Each committed fixture matches a fresh run field for field.

    ``repro bench --check`` gates only the cost totals; these cases also
    hold every metric and span meta, so a fixture cannot go stale
    without a ``drift:`` line naming the field.
    """

    STORE = BaselineStore(
        str(Path(__file__).resolve().parents[2] / DEFAULT_BASELINE_DIR)
    )

    @pytest.mark.parametrize(
        "spec", DEFAULT_SPECS, ids=[spec.name for spec in DEFAULT_SPECS]
    )
    def test_fresh_run_matches_with_no_drift(self, spec):
        fixture = self.STORE.load(spec.name)
        assert fixture is not None, f"no committed fixture for {spec.name}"
        comparison = compare_reports(fixture, run_spec(spec))
        assert comparison.describe() == f"{comparison.workload}: ok (costs unchanged)"


class TestBenchSpecs:
    def test_default_matrix_covers_paper_workloads(self):
        names = [spec.name for spec in DEFAULT_SPECS]
        assert any("bootstrap" in n for n in names)
        assert any("helr" in n for n in names)
        assert any("resnet" in n for n in names)
        assert any("micro" in n for n in names)
        assert len(set(names)) == len(names)

    def test_micro_workload_is_traced_and_parity_clean(self):
        untraced = primitive_micro_cost(BASELINE_JUNG, MADConfig.none())
        with state.capture() as (tracer, _):
            traced = primitive_micro_cost(BASELINE_JUNG, MADConfig.none())
        assert traced == untraced
        assert tracer.total_cost() == untraced
        names = {span.name for span in tracer.spans()}
        assert {"Mult", "Rotate", "KeySwitch", "ModRaise"} <= names

    def test_run_spec_produces_valid_report(self):
        report = run_spec(BenchSpec("micro", "baseline", "none"))
        schema.validate(report, RUN_REPORT)
        assert report["totals"]["ops"]["total"] > 0
        assert report["command"] == "bench micro__baseline__none__nocache"

    def test_run_spec_design_attribution(self):
        report = run_spec(
            BenchSpec("bootstrap", "optimal", "all", cache_mb=256.0, design="BTS")
        )
        assert report["runtime"]["design"] == "BTS"
        assert report["runtime"]["roofline_seconds"] > 0


class TestRunBench:
    SPECS = (
        BenchSpec("micro", "baseline", "none"),
        BenchSpec("bootstrap", "baseline", "none"),
    )

    def test_update_then_check_passes(self, tmp_path, capsys):
        store = BaselineStore(str(tmp_path / "baselines"))
        assert run_bench(self.SPECS, store, update=True) == 0
        assert len(store.keys()) == len(self.SPECS)
        assert run_bench(self.SPECS, store) == 0
        assert "bench ok" in capsys.readouterr().out

    def test_stale_fixture_passes_and_shows_its_drift(self, tmp_path, capsys):
        store = BaselineStore(str(tmp_path / "baselines"))
        run_bench(self.SPECS, store, update=True)
        path = store.path_for(self.SPECS[1].name)
        doc = json.loads(path.read_text())
        doc["metrics"]["counters"]["perf.primitives.mod_up"] += 75
        path.write_text(json.dumps(doc))
        capsys.readouterr()

        assert run_bench(self.SPECS, store) == 0
        lines = capsys.readouterr().out.split("\n")
        at = next(
            i for i, line in enumerate(lines)
            if line.startswith("bootstrap__baseline__none__nocache: ok")
        )
        assert lines[at].endswith(" ms]")  # the timing stays on the headline
        assert lines[at + 1] == "  drift: counter perf.primitives.mod_up 116 -> 41"

    def test_missing_baseline_fails(self, tmp_path, capsys):
        store = BaselineStore(str(tmp_path / "empty"))
        assert run_bench(self.SPECS, store) == 1
        out = capsys.readouterr().out
        assert "MISSING baseline" in out and "--update" in out

    def test_perturbed_baseline_fails_and_names_span(self, tmp_path, capsys):
        """The acceptance check: a deliberately lowered baseline cost makes
        bench exit non-zero with the regressing span in the table."""
        store = BaselineStore(str(tmp_path / "baselines"))
        run_bench(self.SPECS, store, update=True)
        key = self.SPECS[1].name
        path = store.path_for(key)
        doc = json.loads(path.read_text())
        # Pretend EvalMod used to be 1 GB cheaper on ops and traffic.
        doc["totals"]["traffic"]["ct_read"] -= 10**9
        doc["totals"]["traffic"]["total"] -= 10**9
        target = next(
            s for s in doc["spans"]
            if s["name"] == "EvalMod:Mult" and s.get("traffic")
        )
        target["traffic"]["ct_read"] -= 10**9
        target["traffic"]["total"] -= 10**9
        path.write_text(json.dumps(doc))

        out_dir = tmp_path / "out"
        assert run_bench(self.SPECS, store, out_dir=str(out_dir)) == 1
        out = capsys.readouterr().out
        assert "REGRESSION" in out
        assert "traffic.ct_read" in out
        assert "EvalMod:Mult" in out  # the regressing span is named
        # cost_diff artifact written for the regressed workload.
        diff_doc = json.loads((out_dir / f"cost_diff_{key}.json").read_text())
        assert diff_doc["identical"] is False
