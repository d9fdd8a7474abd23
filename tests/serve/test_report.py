"""serve_report.json: assembly, canonical layout and round trip.

Rejections of malformed reports live in the schema conformance corpus
(``tests/obs/test_schema.py``).
"""

import json

import pytest

from repro.obs import schema
from repro.serve import (
    SCENARIOS,
    SERVE_REPORT,
    build_serve_report,
    run_scenario,
    scenario_fingerprint,
)

MICRO = SCENARIOS["micro"]


@pytest.fixture(scope="module")
def report():
    return build_serve_report(MICRO, 0, run_scenario(MICRO, seed=0))


class TestFingerprint:
    def test_stable_across_calls(self):
        assert scenario_fingerprint(MICRO, 0) == scenario_fingerprint(MICRO, 0)

    def test_seed_changes_the_fingerprint(self):
        assert scenario_fingerprint(MICRO, 0) != scenario_fingerprint(MICRO, 1)

    def test_is_hex_sha256(self):
        digest = scenario_fingerprint(MICRO, 0)
        assert len(digest) == 64
        int(digest, 16)  # raises on non-hex


class TestBuild:
    def test_validates_on_construction(self, report):
        schema.validate(report, SERVE_REPORT)  # must not raise

    def test_identity_fields(self, report):
        assert report["schema"] == SERVE_REPORT.id
        assert report["scenario"] == "micro"
        assert report["seed"] == 0
        assert report["config"] == MICRO.config
        assert report["fingerprint"] == scenario_fingerprint(MICRO, 0)

    def test_one_row_per_fleet_in_order(self, report):
        assert [row["fleet"] for row in report["fleets"]] == [
            fleet.name for fleet in MICRO.fleets
        ]

    def test_rows_carry_no_sweep_bookkeeping(self, report):
        for row in report["fleets"]:
            assert "scenario" not in row and "seed" not in row

    def test_payload_is_byte_identical_across_runs(self, report):
        again = build_serve_report(MICRO, 0, run_scenario(MICRO, seed=0))
        strip = lambda r: {  # noqa: E731 - provenance carries timestamps
            k: v for k, v in r.items() if k != "provenance"
        }
        assert json.dumps(strip(report), sort_keys=True) == json.dumps(
            strip(again), sort_keys=True
        )


class TestRoundTrip:
    def test_write_then_load(self, report, tmp_path):
        path = tmp_path / "serve_report.json"
        schema.write(report, SERVE_REPORT, path)
        assert schema.load(path, SERVE_REPORT) == report

    def test_canonical_layout(self, report, tmp_path):
        path = tmp_path / "serve_report.json"
        schema.write(report, SERVE_REPORT, path)
        text = path.read_text()
        assert text.endswith("\n")
        assert text == json.dumps(report, indent=1, sort_keys=True) + "\n"

    def test_load_missing_file_is_none(self, tmp_path):
        assert schema.load(tmp_path / "absent.json", SERVE_REPORT) is None
