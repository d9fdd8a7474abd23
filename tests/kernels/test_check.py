"""The differential-check harness behind ``repro kernels``."""

import math

import pytest

from repro.kernels.check import (
    KERNELS_REPORT,
    render_report,
    run_check,
    sample_rows,
)
from repro.obs import schema


class TestRunCheck:
    def test_parity_passes_at_small_degrees(self):
        report = run_check(degrees=(64, 128), limbs=2, repeats=1)
        schema.validate(report, KERNELS_REPORT)
        assert report["schema"] == KERNELS_REPORT.id
        assert report["passed"]
        assert [e["degree"] for e in report["results"]] == [64, 128]
        assert all(e["parity"] for e in report["results"])
        assert [e["degree"] for e in report["runtime"]] == [64, 128]
        assert all(e["speedup"] > 0 for e in report["runtime"])

    def test_parity_only_skips_timing(self):
        report = run_check(degrees=(64,), limbs=1, parity_only=True)
        assert report["runtime"] == []
        assert report["passed"]

    def test_unreachable_min_speedup_fails(self):
        # The oracle cannot be 1e9x slower; the gate must trip while
        # parity itself stays green.
        report = run_check(
            degrees=(64,), limbs=1, repeats=1, min_speedup=1e9
        )
        assert not report["passed"]
        assert all(e["parity"] for e in report["results"])

    def test_zero_repeats_is_a_value_error(self):
        # Zero repeats time nothing: both sides are inf, the speedup NaN.
        with pytest.raises(ValueError, match="repeats"):
            run_check(degrees=(64,), limbs=1, repeats=0, min_speedup=10)

    def test_nan_speedup_fails_the_gate(self, monkeypatch):
        monkeypatch.setattr(
            "repro.kernels.check._best_of", lambda repeats, run: float("inf")
        )
        report = run_check(degrees=(64,), limbs=1, min_speedup=10)
        assert math.isnan(report["runtime"][0]["speedup"])
        assert not report["passed"]

    def test_rows_are_seed_deterministic_with_boundaries(self):
        moduli = (97, 193)
        first = sample_rows(16, moduli, seed=7)
        assert first == sample_rows(16, moduli, seed=7)
        assert first != sample_rows(16, moduli, seed=8)
        for row, q in zip(first, moduli):
            assert row[0] == 0 and row[1] == q - 1 and row[-1] == q - 1


class TestValidateAndRender:
    # Both used to escape as AttributeError / TypeError instead of the
    # named ValueError every report validator raises.
    def test_non_object_report_is_a_value_error(self):
        with pytest.raises(ValueError, match="document: expected object"):
            schema.validate([], KERNELS_REPORT)

    def test_non_object_result_entry_is_a_value_error(self):
        report = run_check(degrees=(64,), limbs=1, parity_only=True)
        report["results"].append("N=2^7")
        with pytest.raises(ValueError, match=r"results\[1\]: expected object"):
            schema.validate(report, KERNELS_REPORT)

    def test_render_mentions_every_degree_and_verdict(self):
        report = run_check(degrees=(64,), limbs=2, repeats=1)
        text = render_report(report)
        assert "N=2^6" in text
        assert "speedup" in text
        assert text.endswith("PASS")
