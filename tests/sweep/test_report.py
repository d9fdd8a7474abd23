"""sweep_report.json: assembly, canonical layout and round trip.

Rejections of malformed reports live in the schema conformance corpus
(``tests/obs/test_schema.py``).
"""

import copy

import pytest

from repro.obs import schema
from repro.sweep import (
    SWEEP_REPORT,
    SweepAxis,
    SweepSpec,
    build_sweep_report,
    run_sweep,
)

# Added to the evaluators by tests/sweep/test_engine.py at import time;
# importing the module keeps the toy evaluators in one place.
from tests.sweep import test_engine as _engine  # noqa: F401


@pytest.fixture(scope="module")
def outcome():
    spec = SweepSpec(
        name="toy-report",
        evaluator="test.echo",
        axes=(SweepAxis("a", (1, 2)), SweepAxis("b", ("x",))),
        context={"scale": 3},
    )
    return run_sweep(spec)


@pytest.fixture()
def report(outcome):
    return copy.deepcopy(build_sweep_report(outcome))


class TestBuildReport:
    def test_schema_and_identity(self, outcome, report):
        assert report["schema"] == SWEEP_REPORT.id
        assert report["sweep"] == "toy-report"
        assert report["evaluator"] == "test.echo"
        assert report["fingerprint"] == outcome.spec.fingerprint()
        assert [axis["name"] for axis in report["axes"]] == ["a", "b"]

    def test_one_point_per_canonical_index(self, outcome, report):
        assert [entry["index"] for entry in report["points"]] == [0, 1]
        assert [entry["row"] for entry in report["points"]] == outcome.values
        assert [entry["key"] for entry in report["points"]] == [
            {"a": 1, "b": "x"},
            {"a": 2, "b": "x"},
        ]

    def test_fields_are_the_spec_memo_wall_time_and_points(self, report):
        assert set(report) == {
            "schema", "provenance", "sweep", "evaluator", "fingerprint",
            "axes", "memo", "wall_seconds", "points",
        }

    def test_memo_and_wall_time_come_from_the_outcome(self, outcome, report):
        assert report["memo"] == {
            "hits": outcome.memo_hits,
            "misses": outcome.memo_misses,
        }
        assert report["wall_seconds"] == outcome.wall_seconds > 0.0

    def test_valid_report_passes(self, report):
        schema.validate(report, SWEEP_REPORT)

    def test_write_load_round_trip(self, report, tmp_path):
        path = tmp_path / "sweep_report.json"
        schema.write(report, SWEEP_REPORT, path)
        assert schema.load(path, SWEEP_REPORT) == report

    def test_load_missing_returns_none(self, tmp_path):
        assert schema.load(tmp_path / "absent.json", SWEEP_REPORT) is None
