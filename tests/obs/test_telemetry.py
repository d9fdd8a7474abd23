"""``strip_volatile``: host and clock fields go, every result stays."""

import copy

from repro.obs import state as obs
from repro.obs.export import build_run_report
from repro.obs.profiler import run_resource_summary
from repro.obs.telemetry import VOLATILE_REPORT_KEYS, strip_volatile
from repro.sweep import build_preset, build_sweep_report, run_sweep


def _report():
    return {
        "schema": "repro.obs.run_report/v1.1",
        "command": "sweep table5",
        "wall_seconds": 1.25,
        "provenance": {"git_sha": "abc"},
        "resources": {"peak_rss_bytes": 123},
        "runtime": {"wall_seconds": 0.5, "cpu_seconds": 0.4},
        "spans": [
            {
                "name": "sweep:run",
                "start_us": 10,
                "duration_us": 20,
                "meta": {"points": 24},
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
                "sweep.memo.hits": 16,
                "sweep.memo.misses": 8,
            },
            "gauges": {"sweep.memo_hit_rate": 2 / 3, "cache.mb": 32},
            "histograms": {},
        },
    }


class TestStripVolatile:
    def test_strips_host_and_clock_fields(self):
        stripped = strip_volatile(_report())
        assert "provenance" not in stripped
        assert "resources" not in stripped
        assert stripped["wall_seconds"] == 0.0
        assert stripped["runtime"] == {"wall_seconds": 0.0}
        run = stripped["spans"][0]
        assert run["start_us"] == 0 and run["duration_us"] == 0
        assert run["meta"] == {"points": 24}
        point = run["children"][0]
        assert point["meta"] == {"index": 0}  # stable meta survives
        assert stripped["metrics"] == _report()["metrics"]

    def test_keeps_memo_and_the_sweep_memo_metrics(self):
        # One process evaluates every point against one memo, so its
        # statistics are a pure function of the spec and are compared.
        report = _report()
        report["memo"] = {"hits": 16, "misses": 8}
        stripped = strip_volatile(report)
        assert stripped["memo"] == {"hits": 16, "misses": 8}
        counters = stripped["metrics"]["counters"]
        assert counters["sweep.memo.hits"] == 16
        assert counters["sweep.memo.misses"] == 8
        assert stripped["metrics"]["gauges"]["sweep.memo_hit_rate"] == 2 / 3
        other = copy.deepcopy(report)
        other["memo"]["misses"] = 9
        assert strip_volatile(other) != stripped

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
        report = _report()
        original = copy.deepcopy(report)
        strip_volatile(report)
        assert report == original

    def test_two_runs_strip_to_identical_reports(self):
        first = _report()
        second = copy.deepcopy(first)
        second["wall_seconds"] = 9.0
        second["provenance"] = {"git_sha": "def"}
        second["resources"] = {"peak_rss_bytes": 456}
        second["runtime"] = {"wall_seconds": 0.7, "cpu_seconds": 0.6}
        second["spans"][0]["duration_us"] = 31
        second["spans"][0]["children"][0]["meta"]["resource"] = {
            "rss_peak_bytes": 77
        }
        assert strip_volatile(first) == strip_volatile(second)

    def test_real_reports_lose_every_host_and_clock_field(self):
        spec = build_preset("ablation-cache", quick=True)
        with obs.capture() as (tracer, registry):
            outcome = run_sweep(spec)
        run = build_run_report(
            tracer,
            registry,
            command="sweep ablation-cache",
            workload="sweep:ablation-cache",
            resources=run_resource_summary(wall_seconds=0.5, cpu_seconds=0.4),
        )
        sweep = build_sweep_report(outcome)
        points = [s for s in run["spans"] if s["name"] == "sweep:point"]
        assert len(points) == spec.size
        assert all("resource" in point["meta"] for point in points)
        for report in (run, sweep):
            stripped = strip_volatile(report)
            assert not set(VOLATILE_REPORT_KEYS) & set(stripped)
            assert stripped["wall_seconds"] == 0.0
            for span in stripped.get("spans", ()):
                assert (span["start_us"], span["duration_us"]) == (0, 0)
                assert "resource" not in span["meta"]
        assert strip_volatile(sweep)["memo"] == {"hits": 0, "misses": 4}
        assert strip_volatile(run)["metrics"] == run["metrics"]
