import pytest
from hypothesis import given, strategies as st

from repro.perf import CostReport, MemTraffic, OpCount


class TestOpCount:
    def test_total(self):
        assert OpCount(mults=3, adds=4).total == 7

    def test_addition(self):
        combined = OpCount(1, 2) + OpCount(10, 20)
        assert combined == OpCount(11, 22)

    def test_scaling(self):
        assert OpCount(3, 5).scaled(4) == OpCount(12, 20)

    def test_scaling_rejects_negative(self):
        with pytest.raises(ValueError):
            OpCount(1, 1).scaled(-1)

    @given(st.integers(0, 10**9), st.integers(0, 10**9), st.integers(0, 100))
    def test_scaling_matches_repeated_addition(self, m, a, k):
        base = OpCount(m, a)
        total = OpCount()
        for _ in range(k):
            total = total + base
        assert total == base.scaled(k)


class TestMemTraffic:
    def test_total_sums_streams(self):
        t = MemTraffic(ct_read=1, ct_write=2, key_read=4, pt_read=8)
        assert t.total == 15

    def test_addition_per_stream(self):
        t = MemTraffic(1, 2, 3, 4) + MemTraffic(10, 20, 30, 40)
        assert t == MemTraffic(11, 22, 33, 44)

    def test_scaling(self):
        assert MemTraffic(1, 2, 3, 4).scaled(2) == MemTraffic(2, 4, 6, 8)

    def test_scaling_rejects_negative(self):
        with pytest.raises(ValueError):
            MemTraffic(1, 0, 0, 0).scaled(-2)


class TestCostReport:
    def test_addition_combines_both(self):
        a = CostReport(OpCount(1, 1), MemTraffic(ct_read=10))
        b = CostReport(OpCount(2, 2), MemTraffic(ct_write=20))
        c = a + b
        assert c.ops == OpCount(3, 3)
        assert c.traffic == MemTraffic(ct_read=10, ct_write=20)

    def test_arithmetic_intensity(self):
        c = CostReport(OpCount(mults=50, adds=50), MemTraffic(ct_read=200))
        assert c.arithmetic_intensity == pytest.approx(0.5)

    def test_zero_traffic_edge_cases(self):
        assert CostReport().arithmetic_intensity == 0.0
        assert CostReport(OpCount(mults=1)).arithmetic_intensity == float("inf")

    def test_unit_helpers(self):
        c = CostReport(OpCount(mults=2 * 10**9), MemTraffic(ct_read=5 * 10**8))
        assert c.giga_ops() == pytest.approx(2.0)
        assert c.gigabytes() == pytest.approx(0.5)


class TestSumSupport:
    """``sum()`` starts from the int 0; ``__radd__`` makes it work."""

    def test_sum_op_counts(self):
        counts = [OpCount(1, 2), OpCount(3, 4), OpCount(5, 6)]
        assert sum(counts) == OpCount(9, 12)

    def test_sum_mem_traffic(self):
        traffic = [MemTraffic(1, 0, 0, 0), MemTraffic(0, 2, 3, 4)]
        assert sum(traffic) == MemTraffic(1, 2, 3, 4)

    def test_sum_cost_reports(self):
        costs = [
            CostReport(OpCount(mults=1), MemTraffic(ct_read=10)),
            CostReport(OpCount(adds=2), MemTraffic(key_read=20)),
        ]
        total = sum(costs)
        assert total.ops == OpCount(mults=1, adds=2)
        assert total.traffic == MemTraffic(ct_read=10, key_read=20)

    def test_sum_of_empty_sequence_is_int_zero(self):
        assert sum([]) == 0

    @pytest.mark.parametrize(
        "value",
        [OpCount(1, 2), MemTraffic(1, 2, 3, 4),
         CostReport(OpCount(1, 1), MemTraffic(ct_read=5))],
    )
    def test_zero_plus_value_is_identity(self, value):
        assert 0 + value == value

    @pytest.mark.parametrize(
        "value", [OpCount(), MemTraffic(), CostReport()]
    )
    def test_nonzero_int_addition_is_rejected(self, value):
        with pytest.raises(TypeError):
            1 + value


_costs = st.builds(
    CostReport,
    st.builds(OpCount, st.integers(0, 10**12), st.integers(0, 10**12)),
    st.builds(
        MemTraffic,
        st.integers(0, 10**12),
        st.integers(-(10**6), 10**12),  # Rotate's fused ModDown nets a write out
        st.integers(0, 10**12),
        st.integers(0, 10**12),
    ),
)


class TestWeightedSum:
    """``CostReport.weighted_sum``: one repeated sub-operation, priced once."""

    @given(st.lists(st.tuples(_costs, st.integers(0, 50)), max_size=8))
    def test_equals_the_scaled_fold(self, terms):
        folded = CostReport()
        for cost, count in terms:
            folded = folded + cost.scaled(count)
        assert CostReport.weighted_sum(terms) == folded

    def test_empty_is_a_zero_report(self):
        assert CostReport.weighted_sum([]) == CostReport()
        assert CostReport.weighted_sum(iter(())) == CostReport()

    def test_count_zero_adds_nothing(self):
        a = CostReport(OpCount(1, 2), MemTraffic(3, 4, 5, 6))
        b = CostReport(OpCount(10**9, 7), MemTraffic(key_read=8))
        assert CostReport.weighted_sum([(a, 1), (b, 0)]) == a

    def test_negative_count_is_rejected(self):
        a = CostReport(OpCount(1, 1), MemTraffic(ct_read=1))
        with pytest.raises(ValueError, match="non-negative"):
            CostReport.weighted_sum([(a, 1), (a, -1)])
