import pytest
from hypothesis import given, settings

from repro.obs import state
from repro.params import BASELINE_JUNG
from repro.perf import (
    CostReport,
    MADConfig,
    MemTraffic,
    OpCount,
    PrimitiveCosts,
    pt_mat_vec_mult_cost,
)
from repro.perf.matvec import bsgs_split
from tests.perf.test_primitives import (
    LADDER_RUNGS,
    cost_models,
    looped_digit_sizes,
    small_params,
)


class TestBsgsSplit:
    def test_covers_all_diagonals(self):
        for diagonals in (1, 2, 7, 41, 100, 256):
            baby, giant = bsgs_split(diagonals)
            assert baby * giant >= diagonals

    def test_balanced_near_sqrt(self):
        baby, giant = bsgs_split(41)
        assert baby == 8
        assert giant == 6

    def test_larger_baby_doubles(self):
        baby, _ = bsgs_split(41, larger_baby=True)
        assert baby == 16

    def test_rejects_zero(self):
        with pytest.raises(ValueError):
            bsgs_split(0)


class TestMatVecCost:
    @pytest.fixture(scope="class")
    def baseline(self):
        return PrimitiveCosts(BASELINE_JUNG, MADConfig.none())

    def test_scales_with_diagonals(self, baseline):
        small = pt_mat_vec_mult_cost(baseline, 35, 8)
        large = pt_mat_vec_mult_cost(baseline, 35, 64)
        assert large.ops.total > small.ops.total
        assert large.traffic.total > small.traffic.total

    def test_hoisting_reduces_ops(self):
        base = PrimitiveCosts(BASELINE_JUNG, MADConfig.caching_only())
        hoisted = PrimitiveCosts(
            BASELINE_JUNG, MADConfig.caching_only().with_(mod_down_hoist=True)
        )
        cost_base = pt_mat_vec_mult_cost(base, 35, 41)
        cost_hoist = pt_mat_vec_mult_cost(hoisted, 35, 41)
        assert cost_hoist.ops.total < cost_base.ops.total

    def test_hoisting_increases_key_reads(self):
        """The larger baby step re-reads switching keys more often (+25%)."""
        base = PrimitiveCosts(BASELINE_JUNG, MADConfig.caching_only())
        hoisted = PrimitiveCosts(
            BASELINE_JUNG, MADConfig.caching_only().with_(mod_down_hoist=True)
        )
        key_base = pt_mat_vec_mult_cost(base, 35, 41).traffic.key_read
        key_hoist = pt_mat_vec_mult_cost(hoisted, 35, 41).traffic.key_read
        assert key_hoist > key_base
        assert key_hoist / key_base < 1.8

    def test_hoisting_reduces_ct_traffic(self):
        base = PrimitiveCosts(BASELINE_JUNG, MADConfig.caching_only())
        hoisted = PrimitiveCosts(
            BASELINE_JUNG, MADConfig.caching_only().with_(mod_down_hoist=True)
        )
        t_base = pt_mat_vec_mult_cost(base, 35, 41).traffic
        t_hoist = pt_mat_vec_mult_cost(hoisted, 35, 41).traffic
        assert (
            t_hoist.ct_read + t_hoist.ct_write
            < t_base.ct_read + t_base.ct_write
        )

    def test_beta_cache_reduces_reads_only(self):
        base = PrimitiveCosts(BASELINE_JUNG, MADConfig(cache_o1=True))
        beta = PrimitiveCosts(
            BASELINE_JUNG, MADConfig(cache_o1=True, cache_beta=True)
        )
        t_base = pt_mat_vec_mult_cost(base, 35, 41).traffic
        t_beta = pt_mat_vec_mult_cost(beta, 35, 41).traffic
        assert t_beta.ct_read < t_base.ct_read
        assert t_beta.ct_write == t_base.ct_write
        assert t_beta.key_read == t_base.key_read

    def test_caching_preserves_ops(self):
        base = PrimitiveCosts(BASELINE_JUNG, MADConfig.none())
        cached = PrimitiveCosts(BASELINE_JUNG, MADConfig.caching_only())
        assert (
            pt_mat_vec_mult_cost(cached, 35, 41).ops
            == pt_mat_vec_mult_cost(base, 35, 41).ops
        )

    def test_plaintext_reads_proportional_to_diagonals(self, baseline):
        limb = BASELINE_JUNG.limb_bytes
        cost = pt_mat_vec_mult_cost(baseline, 35, 41)
        assert cost.traffic.pt_read == 41 * 35 * limb


def looped_mat_vec(costs, limbs, diagonals):
    """PtMatVecMult folded with ``+``: every rotation priced on its own."""
    params, config = costs.params, costs.config
    n, limb = params.ring_degree, params.limb_bytes
    raised = params.raised_limbs(limbs)
    baby, giant = bsgs_split(diagonals, larger_baby=config.mod_down_hoist)
    cost = costs.decomp(limbs)
    for digit_size in looped_digit_sizes(params, limbs):
        cost = cost + costs.mod_up(limbs, digit_size, fused_intt=config.cache_o1)
    digit_reads = CostReport(
        OpCount(), MemTraffic(ct_read=params.beta(limbs) * raised * limb)
    )
    output_write = CostReport(
        OpCount(adds=2 * n * limbs), MemTraffic(ct_write=2 * limbs * limb)
    )
    if config.mod_down_hoist:
        for _ in range((baby - 1) + (giant - 1)):
            cost = cost + costs.ksk_inner_product(
                limbs,
                count_digit_reads=not config.cache_beta,
                count_output_writes=False,
            )
        if config.cache_beta:
            cost = cost + digit_reads
        for _ in range(diagonals):
            cost = cost + CostReport(
                OpCount(mults=2 * n * raised, adds=2 * n * raised),
                MemTraffic(pt_read=limbs * limb, ct_read=limbs * limb),
            )
        cost = cost + costs.mod_down(limbs, polys=2, input_resident=True)
    else:
        reorder = config.limb_reorder
        for _ in range(baby - 1):
            cost = cost + costs.ksk_inner_product(
                limbs,
                count_digit_reads=not config.cache_beta,
                count_output_writes=not reorder,
            )
            cost = cost + costs.mod_down(limbs, polys=2, input_resident=reorder)
        if config.cache_beta:
            cost = cost + digit_reads
        for _ in range(diagonals):
            cost = cost + CostReport(
                OpCount(mults=2 * n * limbs, adds=2 * n * limbs),
                MemTraffic(pt_read=limbs * limb, ct_read=2 * limbs * limb),
            )
        for _ in range(giant - 1):
            cost = cost + costs.rotate(limbs)
    return cost + output_write + costs.rescale(limbs, polys=2)


class TestRepetitionsPricedOnce:
    """Weighting each sub-operation by its count equals the per-step loops."""

    @pytest.mark.parametrize(
        "config", [c for _, c in LADDER_RUNGS], ids=[n for n, _ in LADDER_RUNGS]
    )
    @settings(max_examples=8, deadline=None)
    @given(params=small_params())
    def test_matches_the_loops(self, config, params):
        # 1-3 diagonals make baby - 1 or giant - 1 zero on some branch.
        for costs in cost_models(params, config):
            for limbs in range(2, params.max_limbs + 1):
                for diagonals in (1, 2, 3, 41):
                    assert pt_mat_vec_mult_cost(
                        costs, limbs, diagonals
                    ) == looped_mat_vec(costs, limbs, diagonals)

    @pytest.mark.parametrize(
        "diagonals, rotates, inner_products",
        # (baby, giant) = (1, 1), (2, 1) and (2, 2) at baseline.
        [(1, 0, 0), (2, 0, 1), (3, 1, 2)],
    )
    def test_zero_step_counts_price_nothing(
        self, diagonals, rotates, inner_products
    ):
        costs = PrimitiveCosts(BASELINE_JUNG, MADConfig.none())
        with state.capture() as (_, registry):
            pt_mat_vec_mult_cost(costs, 35, diagonals)
        counters = registry.counters()
        assert counters.get("perf.primitives.rotate", 0) == rotates
        assert (
            counters.get("perf.primitives.ksk_inner_product", 0)
            == inner_products
        )

    def test_each_rotation_is_priced_once(self):
        # 41 diagonals: 7 baby steps and 5 giant steps at baseline.
        assert bsgs_split(41) == (8, 6)
        costs = PrimitiveCosts(BASELINE_JUNG, MADConfig.none())
        with state.capture() as (_, registry):
            pt_mat_vec_mult_cost(costs, 35, 41)
        counters = registry.counters()
        assert counters["perf.primitives.rotate"] == 1
        # One baby-step inner product and one inside the priced Rotate.
        assert counters["perf.primitives.ksk_inner_product"] == 2
        assert counters["perf.primitives.mod_down"] == 2
