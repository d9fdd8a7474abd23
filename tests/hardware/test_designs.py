"""Preset-catalog integrity for ``hardware.designs``.

The preset names double as span labels and report keys (Table 6 rows,
run-report ``runtime.design`` fields, sweep axes), so they must stay
byte-stable; the parameters must stay positive and finite or the
roofline divides blow up; and every prior design needs a MAD
counterpart for the paper's pairwise comparison to be constructible.
"""

import dataclasses
import math

import pytest
from hypothesis import given, strategies as st

from repro.hardware import (
    PRIOR_DESIGNS,
    HardwareDesign,
    estimate_runtime,
    mad_counterpart,
)
from repro.perf.events import CostReport, MemTraffic, OpCount

#: The catalog as shipped; a rename here breaks committed baselines and
#: span labels, so the expected names are spelled out, not derived.
EXPECTED_NAMES = ("GPU [Jung et al.]", "F1", "BTS", "ARK", "CraterLake")


class TestPresetIntegrity:
    def test_catalog_names_are_stable(self):
        assert tuple(PRIOR_DESIGNS) == EXPECTED_NAMES

    def test_keys_match_design_names(self):
        for key, design in PRIOR_DESIGNS.items():
            assert key == design.name

    @pytest.mark.parametrize("name", EXPECTED_NAMES)
    def test_parameters_positive_and_finite(self, name):
        design = PRIOR_DESIGNS[name]
        for value in (
            design.modular_multipliers,
            design.on_chip_mb,
            design.bandwidth_gb_s,
            design.frequency_ghz,
            design.compute_ops_per_second,
            design.bandwidth_bytes_per_second,
        ):
            assert value > 0 and math.isfinite(value)

    @pytest.mark.parametrize("name", EXPECTED_NAMES)
    def test_every_preset_has_a_mad_counterpart(self, name):
        design = PRIOR_DESIGNS[name]
        mad = mad_counterpart(design)
        assert mad.name == f"{design.name}+MAD-32"
        assert mad.modular_multipliers == design.modular_multipliers
        assert mad.bandwidth_gb_s == design.bandwidth_gb_s
        assert mad.frequency_ghz == design.frequency_ghz
        assert mad.on_chip_mb == 32

    def test_counterpart_names_are_distinct_span_labels(self):
        names = [
            mad_counterpart(design).name
            for design in PRIOR_DESIGNS.values()
        ]
        assert len(set(names)) == len(names)
        assert set(names).isdisjoint(PRIOR_DESIGNS)


class TestDegenerateDesignsRejected:
    BASE = PRIOR_DESIGNS["BTS"]

    def test_nan_memory_rejected(self):
        with pytest.raises(ValueError, match="on_chip_mb"):
            dataclasses.replace(self.BASE, on_chip_mb=float("nan"))

    def test_infinite_bandwidth_rejected(self):
        with pytest.raises(ValueError, match="bandwidth"):
            dataclasses.replace(self.BASE, bandwidth_gb_s=float("inf"))

    def test_zero_frequency_rejected(self):
        with pytest.raises(ValueError, match="frequency_ghz"):
            dataclasses.replace(self.BASE, frequency_ghz=0.0)

    def test_estimate_runtime_names_a_smuggled_degenerate_rate(self):
        # dataclasses.replace re-runs __post_init__, so the only way to
        # reach estimate_runtime with a broken rate is to bypass
        # validation outright — which is exactly the hole the runtime
        # guard covers.
        broken = object.__new__(HardwareDesign)
        for field, value in dataclasses.asdict(self.BASE).items():
            object.__setattr__(broken, field, value)
        object.__setattr__(broken, "params", self.BASE.params)
        object.__setattr__(broken, "modular_multipliers", 0)
        cost = CostReport(ops=OpCount(mults=1), traffic=MemTraffic(ct_read=1))
        with pytest.raises(ValueError, match="compute_ops_per_second"):
            estimate_runtime(cost, broken)


#: A deliberately memory-bound cost: almost no compute, heavy traffic.
MEMORY_BOUND = CostReport(
    ops=OpCount(mults=1),
    traffic=MemTraffic(ct_read=10**9, key_read=10**9),
)


class TestRuntimeMonotoneInBandwidth:
    @given(
        low=st.floats(min_value=1.0, max_value=1e4),
        factor=st.floats(min_value=1.0, max_value=1e3),
    )
    def test_more_bandwidth_never_hurts_memory_bound_costs(
        self, low, factor
    ):
        slower = dataclasses.replace(
            PRIOR_DESIGNS["BTS"], bandwidth_gb_s=low
        )
        faster = dataclasses.replace(
            PRIOR_DESIGNS["BTS"], bandwidth_gb_s=low * factor
        )
        a = estimate_runtime(MEMORY_BOUND, slower)
        b = estimate_runtime(MEMORY_BOUND, faster)
        assert b.memory_seconds <= a.memory_seconds
        assert b.seconds <= a.seconds

    @given(bandwidth=st.floats(min_value=1.0, max_value=1e6))
    def test_memory_seconds_scale_inversely(self, bandwidth):
        design = dataclasses.replace(
            PRIOR_DESIGNS["BTS"], bandwidth_gb_s=bandwidth
        )
        estimate = estimate_runtime(MEMORY_BOUND, design)
        expected = MEMORY_BOUND.traffic.total / (bandwidth * 1e9)
        assert estimate.memory_seconds == pytest.approx(expected)
