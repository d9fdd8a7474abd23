import pytest

from repro.cli import main


class TestCliCommands:
    def test_table4(self, capsys):
        assert main(["table4"]) == 0
        out = capsys.readouterr().out
        assert "Rotate" in out and "Bootstrap" in out

    def test_table4_optimized_config(self, capsys):
        assert main(["table4", "--params", "optimal", "--config", "all"]) == 0
        assert "Bootstrap" in capsys.readouterr().out

    def test_table5_quick(self, capsys):
        assert main(["table5", "--quick"]) == 0
        out = capsys.readouterr().out
        assert "Baseline" in out and "Search optimal" in out

    def test_table6(self, capsys):
        assert main(["table6"]) == 0
        out = capsys.readouterr().out
        assert "CraterLake" in out and "MAD-32" in out

    def test_fig1(self, capsys):
        assert main(["fig1"]) == 0
        assert "saved" in capsys.readouterr().out

    def test_fig2(self, capsys):
        assert main(["fig2"]) == 0
        out = capsys.readouterr().out
        assert "Limb Re-order" in out

    def test_fig3(self, capsys):
        assert main(["fig3", "--params", "baseline"]) == 0
        assert "Key Compression" in capsys.readouterr().out

    def test_fig6(self, capsys):
        assert main(["fig6", "--workload", "resnet", "--design", "BTS",
                     "--caches", "32"]) == 0
        assert "BTS" in capsys.readouterr().out

    def test_bootstrap_breakdown(self, capsys):
        assert main(["bootstrap", "--params", "optimal", "--config", "all",
                     "--cache-mb", "32"]) == 0
        out = capsys.readouterr().out
        assert "CoeffToSlot" in out and "Total" in out

    def test_search_quick(self, capsys):
        assert main(["search", "--quick", "--top", "2"]) == 0
        out = capsys.readouterr().out
        assert out.count("#") == 2

    def test_ledger(self, capsys):
        assert main(["ledger", "--params", "optimal", "--config", "all"]) == 0
        out = capsys.readouterr().out
        assert "EvalMod:Mult" in out and "Total" in out

    def test_balance(self, capsys):
        assert main(["balance"]) == 0
        out = capsys.readouterr().out
        assert "MAD-32" in out and "balance" in out

    def test_unknown_command_exits(self):
        with pytest.raises(SystemExit):
            main(["frobnicate"])

    def test_missing_command_exits(self):
        with pytest.raises(SystemExit):
            main([])


class TestJsonOutput:
    """--json renders each table as parseable JSON."""

    def test_table4_json(self, capsys):
        import json

        assert main(["table4", "--json"]) == 0
        rows = json.loads(capsys.readouterr().out)
        assert {row["operation"] for row in rows} >= {"Mult", "Bootstrap"}
        assert all("giga_ops" in row for row in rows)

    def test_table6_json(self, capsys):
        import json

        assert main(["table6", "--json"]) == 0
        rows = json.loads(capsys.readouterr().out)
        assert any("MAD-32" in row["design"] for row in rows)

    def test_fig2_json(self, capsys):
        import json

        assert main(["fig2", "--json"]) == 0
        points = json.loads(capsys.readouterr().out)
        assert points[0]["reduction_vs_baseline"] == 0.0

    def test_fig3_json(self, capsys):
        import json

        assert main(["fig3", "--json"]) == 0
        assert json.loads(capsys.readouterr().out)

    def test_bootstrap_json(self, capsys):
        import json

        assert main(["bootstrap", "--json", "--config", "all"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert set(payload["phases"]) == {
            "ModRaise", "CoeffToSlot", "EvalMod", "SlotToCoeff",
        }
        assert payload["total"]["ops"]["total"] == sum(
            phase["ops"]["total"] for phase in payload["phases"].values()
        )
        assert payload["config"]["key_compression"] is True

    def test_ledger_json(self, capsys):
        import json

        assert main(["ledger", "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert "EvalMod:Mult" in payload["components"]
        assert payload["total"]["traffic"]["total"] == sum(
            c["traffic"]["total"] for c in payload["components"].values()
        )


class TestTraceCommand:
    def test_trace_bootstrap_writes_valid_chrome_trace(self, capsys, tmp_path):
        import json

        from repro.params import BASELINE_JUNG
        from repro.perf import BootstrapModel, MADConfig

        out = tmp_path / "trace.json"
        assert main(["trace", "bootstrap", "--out", str(out)]) == 0
        stdout = capsys.readouterr().out
        assert "Span" in stdout and str(out) in stdout

        doc = json.loads(out.read_text())
        events = [e for e in doc["traceEvents"] if e["ph"] == "X"]
        names = {e["name"] for e in events}
        assert names >= {"ModRaise", "CoeffToSlot", "EvalMod", "SlotToCoeff"}
        assert all(e["ts"] >= 0 and e["dur"] >= 0 for e in events)

        untraced = BootstrapModel(BASELINE_JUNG, MADConfig.none()).total_cost()
        costed = [e for e in events if "cost" in e["args"]]
        assert sum(e["args"]["ops"] for e in costed) == untraced.ops.total
        assert (
            sum(e["args"]["bytes"] for e in costed) == untraced.traffic.total
        )

    def test_trace_writes_validated_run_report(self, capsys, tmp_path):
        import json

        from repro.obs import schema
        from repro.obs.export import RUN_REPORT

        out = tmp_path / "trace.json"
        report_path = tmp_path / "report.json"
        assert main([
            "trace", "bootstrap", "--out", str(out),
            "--report", str(report_path), "--design", "BTS",
            "--config", "all", "--cache-mb", "256",
        ]) == 0
        report = schema.load(report_path, RUN_REPORT)
        assert report_path.read_text().endswith("}\n")
        assert report["schema"] == RUN_REPORT.id
        assert report["command"] == "trace bootstrap"
        assert report["config"]["key_compression"] is True
        assert report["runtime"]["design"] == "BTS"
        assert report["runtime"]["bound"] in ("compute", "memory")
        assert report["metrics"]["counters"]

    def test_trace_helr_workload(self, capsys, tmp_path):
        import json

        out = tmp_path / "helr.json"
        assert main(["trace", "helr", "--out", str(out)]) == 0
        names = {
            e["name"]
            for e in json.loads(out.read_text())["traceEvents"]
            if e["ph"] == "X"
        }
        assert "Workload" in names and "Bootstraps" in names

    def test_trace_resnet_workload(self, tmp_path):
        out = tmp_path / "resnet.json"
        assert main(["trace", "resnet", "--out", str(out)]) == 0
        assert out.exists()

    def test_trace_leaves_tracing_disabled(self, tmp_path):
        from repro.obs import state

        assert main(
            ["trace", "bootstrap", "--out", str(tmp_path / "t.json")]
        ) == 0
        assert not state.tracing_enabled()
        assert not state.metrics_enabled()

    def test_trace_requires_out(self):
        with pytest.raises(SystemExit):
            main(["trace", "bootstrap"])


class TestTraceMetricsFlag:
    def test_prints_counters_and_embeds_snapshot(self, capsys, tmp_path):
        import json

        out = tmp_path / "trace.json"
        assert main(["trace", "bootstrap", "--out", str(out), "--metrics"]) == 0
        stdout = capsys.readouterr().out
        assert "Counters" in stdout
        assert "perf.primitives.key_switch" in stdout
        doc = json.loads(out.read_text())
        metrics = doc["otherData"]["metrics"]
        assert metrics["counters"]
        assert "perf.primitives.mult" in metrics["counters"]

    def test_without_flag_no_counters_section(self, capsys, tmp_path):
        import json

        out = tmp_path / "trace.json"
        assert main(["trace", "bootstrap", "--out", str(out)]) == 0
        assert "Counters" not in capsys.readouterr().out
        assert "metrics" not in json.loads(out.read_text())["otherData"]


class TestDiffCommand:
    def _write_report(self, tmp_path, name, config):
        import json

        report_path = tmp_path / f"{name}.json"
        assert main([
            "trace", "bootstrap", "--out", str(tmp_path / f"{name}_t.json"),
            "--report", str(report_path), "--config", config,
        ]) == 0
        return report_path

    def test_identical_reports_render_identical(self, capsys, tmp_path):
        a = self._write_report(tmp_path, "a", "none")
        b = self._write_report(tmp_path, "b", "none")
        capsys.readouterr()
        assert main(["diff", str(a), str(b)]) == 0
        assert "identical" in capsys.readouterr().out

    def test_diff_writes_validated_artifacts(self, capsys, tmp_path):
        import json

        from repro.obs import schema
        from repro.obs.diff import COST_DIFF

        a = self._write_report(tmp_path, "a", "none")
        b = self._write_report(tmp_path, "b", "all")
        capsys.readouterr()
        cost_diff = tmp_path / "cost_diff.json"
        overlay = tmp_path / "overlay.json"
        assert main([
            "diff", str(a), str(b),
            "--json", str(cost_diff), "--overlay", str(overlay),
        ]) == 0
        stdout = capsys.readouterr().out
        assert "Span path" in stdout and "key_read" in stdout
        doc = schema.load(cost_diff, COST_DIFF)
        assert doc["identical"] is False
        assert {e["pid"] for e in json.loads(overlay.read_text())["traceEvents"]} == {1, 2}

    def test_mismatched_workloads_need_force(self, capsys, tmp_path):
        import json

        from repro.obs.diff import WorkloadMismatchError

        a = self._write_report(tmp_path, "a", "none")
        helr = tmp_path / "helr.json"
        assert main([
            "trace", "helr", "--out", str(tmp_path / "helr_t.json"),
            "--report", str(helr),
        ]) == 0
        capsys.readouterr()
        with pytest.raises(WorkloadMismatchError):
            main(["diff", str(a), str(helr)])
        assert main(["diff", str(a), str(helr), "--force"]) == 0


    def test_top_limits_the_changed_span_rows(self, capsys, tmp_path):
        from pathlib import Path

        from repro.obs import schema
        from repro.obs.diff import COST_DIFF

        baselines = Path(__file__).resolve().parents[1] / "benchmarks" / "baselines"
        base = str(baselines / "micro__baseline__none__nocache.json")
        other = str(baselines / "micro__optimal__all__nocache.json")
        cost_diff = tmp_path / "cost_diff.json"
        assert main(["diff", base, other, "--force", "--top", "1",
                     "--json", str(cost_diff)]) == 0
        out = capsys.readouterr().out
        spans = schema.load(cost_diff, COST_DIFF)["spans"]
        assert len(spans) > 1
        assert out.count("matched") + out.count("added") + \
            out.count("removed") == 1
        assert f"… {len(spans) - 1} more changed spans" in out


class TestBenchCommand:
    def test_list(self, capsys):
        assert main(["bench", "--list"]) == 0
        out = capsys.readouterr().out
        assert "bootstrap__optimal__all__nocache" in out
        assert "resnet__optimal__all__cache256__bts" in out

    def test_update_then_check_cycle(self, capsys, tmp_path):
        baselines = tmp_path / "baselines"
        out_dir = tmp_path / "out"
        args = ["bench", "--workloads", "micro",
                "--baseline-dir", str(baselines), "--out-dir", str(out_dir)]
        assert main(args + ["--update"]) == 0
        assert main(args + ["--check"]) == 0
        stdout = capsys.readouterr().out
        assert "baseline updated" in stdout and "bench ok" in stdout
        # Costs unchanged: no cost diff to write, and nothing else.
        assert list(out_dir.iterdir()) == []

    def test_check_against_committed_baselines(self, capsys):
        # The acceptance criterion: the committed benchmarks/baselines/
        # fixtures must gate the current model exactly.
        assert main(["bench", "--check"]) == 0
        assert "bench ok" in capsys.readouterr().out

    def test_check_fails_without_baselines(self, capsys, tmp_path):
        assert main([
            "bench", "--check", "--workloads", "micro__baseline",
            "--baseline-dir", str(tmp_path / "nothing"),
        ]) == 1
        assert "MISSING baseline" in capsys.readouterr().out

    def test_unknown_workload_filter_exits(self):
        with pytest.raises(SystemExit, match="no bench workloads match"):
            main(["bench", "--workloads", "nonexistent"])


class TestSweepCommand:
    def test_list_presets(self, capsys):
        assert main(["sweep", "--list"]) == 0
        out = capsys.readouterr().out
        assert "table5" in out and "memsim-ladder" in out

    @pytest.mark.parametrize(
        "argv", [["sweep"], ["sweep", "nope"], ["sweep", "serve-capacity"]]
    )
    def test_missing_preset_exits(self, argv):
        with pytest.raises(SystemExit, match="choose a sweep preset"):
            main(argv)

    def test_quick_ablation_sweep(self, capsys):
        assert main(["sweep", "ablation-cache", "--quick"]) == 0
        out = capsys.readouterr().out
        assert out.startswith("sweep ablation-cache: 4 points, memo hit rate ")

    def test_json_and_out_write_the_same_report(self, capsys, tmp_path):
        import json

        from repro.obs.telemetry import strip_volatile

        path = tmp_path / "sweep.json"
        assert main(["sweep", "fig6-lr", "--quick", "--json",
                     "--out", str(path)]) == 0
        printed = json.loads(capsys.readouterr().out)
        assert printed == json.loads(path.read_text())
        assert main(["sweep", "fig6-lr", "--quick", "--json"]) == 0
        again = json.loads(capsys.readouterr().out)
        assert strip_volatile(again) == strip_volatile(printed)

    def test_json_report_is_valid(self, capsys):
        import json

        from repro.obs import schema
        from repro.sweep import SWEEP_REPORT

        assert main(["sweep", "ablation-cache", "--quick", "--json"]) == 0
        report = json.loads(capsys.readouterr().out)
        schema.validate(report, SWEEP_REPORT)
        assert report["sweep"] == "ablation-cache"



class TestSweepTelemetryFlags:
    def test_report_and_out_agree_on_points_and_memo(self, capsys, tmp_path):
        from repro.obs import schema
        from repro.obs.export import RUN_REPORT
        from repro.sweep import SWEEP_REPORT

        run_path = tmp_path / "run.json"
        out_path = tmp_path / "sweep.json"
        assert main(["sweep", "table5", "--quick", "--report", str(run_path),
                     "--out", str(out_path)]) == 0
        capsys.readouterr()
        run = schema.load(run_path, RUN_REPORT)
        sweep = schema.load(out_path, SWEEP_REPORT)
        assert run["resources"]["peak_rss_bytes"] > 0
        counters = run["metrics"]["counters"]
        assert sweep["memo"] == {"hits": 63, "misses": 24}
        assert counters["sweep.memo.hits"] == sweep["memo"]["hits"]
        assert counters["sweep.memo.misses"] == sweep["memo"]["misses"]
        assert counters["sweep.points"] == len(sweep["points"]) == 87

    def test_report_has_per_point_resource_spans(self, capsys, tmp_path):
        import json

        path = tmp_path / "rr.json"
        assert main(["sweep", "ablation-cache", "--quick",
                     "--report", str(path)]) == 0
        capsys.readouterr()
        report = json.loads(path.read_text())

        def walk(spans):
            for span in spans:
                yield span
                yield from walk(span.get("children", []))

        points = [s for s in walk(report["spans"])
                  if s["name"] == "sweep:point"]
        assert points
        assert all(s["meta"]["resource"]["rss_peak_bytes"] > 0
                   for s in points)


class TestProfileCommand:
    def test_profile_micro(self, capsys):
        assert main(["profile", "micro"]) == 0
        out = capsys.readouterr().out
        assert "process peak RSS" in out
        assert "Primitives" in out

    def test_profile_bootstrap_report(self, capsys, tmp_path):
        import json

        from repro.obs import schema
        from repro.obs.export import RUN_REPORT

        path = tmp_path / "rr.json"
        assert main(["profile", "bootstrap", "--params", "optimal",
                     "--config", "all", "--report", str(path)]) == 0
        capsys.readouterr()
        report = schema.load(path, RUN_REPORT)
        assert report["command"] == "profile bootstrap"
        assert report["resources"]["peak_rss_bytes"] > 0

    def test_profile_json(self, capsys):
        import json

        assert main(["profile", "micro", "--json", "--depth", "2"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["workload"] == "micro"
        assert payload["resources"]["wall_seconds"] > 0
        assert payload["spans"]
        assert all(s["depth"] < 2 for s in payload["spans"])

    def test_depth_one_meters_only_the_root_spans(self, capsys):
        import json

        assert main(["profile", "micro", "--json", "--depth", "1"]) == 0
        spans = json.loads(capsys.readouterr().out)["spans"]
        assert spans
        assert all(s["depth"] == 0 for s in spans)

    def test_profile_no_alloc(self, capsys):
        assert main(["profile", "micro", "--no-alloc", "--json"]) == 0
        import json

        payload = json.loads(capsys.readouterr().out)
        assert payload["resources"]["alloc_peak_bytes"] == 0
