import pytest
from hypothesis import given, settings, strategies as st

from repro.obs import state
from repro.params import BASELINE_JUNG, CkksParams
from repro.perf import (
    ALGORITHMIC_LADDER,
    CACHING_LADDER,
    CacheModel,
    CostReport,
    MADConfig,
    MemTraffic,
    OpCount,
    PrimitiveCosts,
)

#: Table 4 of the paper: (giga-ops, DRAM GB) at N=2^17, l=35, dnum=3,
#: baseline small cache.  Our counting conventions reproduce each row to
#: within this tolerance.
TABLE4 = {
    "pt_add": (0.0046, 0.1101),
    "add": (0.0092, 0.2202),
    "pt_mult": (0.2747, 0.3282),
    "decomp": (0.0092, 0.0734),
    "mod_up": (0.2847, 0.1510),
    "ksk_inner_product": (0.0629, 0.4530),
    "mod_down": (0.3000, 0.1877),
    "mult": (1.8333, 1.9293),
    "automorph": (0.0, 0.1468),
    "rotate": (1.5310, 1.5645),
    "conjugate": (1.5310, 1.5645),
}

TOLERANCE = 0.22  # relative


@pytest.fixture(scope="module")
def baseline():
    return PrimitiveCosts(BASELINE_JUNG, MADConfig.none())


@pytest.fixture(scope="module")
def optimized():
    return PrimitiveCosts(BASELINE_JUNG, MADConfig.all())


def _cost(costs, name):
    method = getattr(costs, name)
    if name == "mod_up":
        return method(35, 12)
    return method(35)


class TestTable4Reproduction:
    @pytest.mark.parametrize("name", sorted(TABLE4))
    def test_ops_match_paper(self, baseline, name):
        paper_gops, _ = TABLE4[name]
        ours = _cost(baseline, name).giga_ops()
        if paper_gops == 0:
            assert ours == 0
        else:
            assert ours == pytest.approx(paper_gops, rel=TOLERANCE)

    @pytest.mark.parametrize("name", sorted(TABLE4))
    def test_traffic_matches_paper(self, baseline, name):
        _, paper_gb = TABLE4[name]
        ours = _cost(baseline, name).gigabytes()
        assert ours == pytest.approx(paper_gb, rel=TOLERANCE)

    @pytest.mark.parametrize("name", sorted(TABLE4))
    def test_arithmetic_intensity_below_two(self, baseline, name):
        """Every primitive is memory-bound-ish: AI < 2 ops/byte (Table 4)."""
        report = _cost(baseline, name)
        assert report.arithmetic_intensity < 2.0

    def test_rotate_equals_conjugate(self, baseline):
        assert _cost(baseline, "rotate") == _cost(baseline, "conjugate")


class TestFigure1RotateCaching:
    """Fig. 1: the Automorph+Decomp+iNTT prefix of Rotate drops from
    105 reads + 105 writes to 35 reads + 35 writes with O(1) caching."""

    def test_naive_prefix_transfer_count(self):
        costs = PrimitiveCosts(BASELINE_JUNG, MADConfig.none())
        limb = BASELINE_JUNG.limb_bytes
        # c1-side prefix: automorph (l r/w) + decomp (l r/w) + iNTT (l r/w).
        naive = costs.rotate(35).traffic
        o1 = PrimitiveCosts(BASELINE_JUNG, MADConfig(cache_o1=True)).rotate(35).traffic
        saved_limbs = (naive.total - o1.total) / limb
        # Fig. 1 claims 140 limb transfers saved on the fused prefix; our
        # model adds further fusions (ModDown output streaming), so at
        # least 140 must disappear.
        assert saved_limbs >= 140

    def test_o1_saves_roughly_124_mb_on_prefix(self):
        # "Our approach avoids ... 124 MB of data transfer for a ciphertext."
        naive = PrimitiveCosts(BASELINE_JUNG, MADConfig.none()).rotate(35)
        o1 = PrimitiveCosts(BASELINE_JUNG, MADConfig(cache_o1=True)).rotate(35)
        saved_mb = (naive.traffic.total - o1.traffic.total) / 1e6
        assert 124 <= saved_mb <= 260


class TestOptimizationInvariants:
    @pytest.mark.parametrize(
        "name", ["pt_mult", "mult", "rotate", "mod_up", "mod_down"]
    )
    def test_caching_never_increases_traffic(self, name):
        base = PrimitiveCosts(BASELINE_JUNG, MADConfig.none())
        cached = PrimitiveCosts(BASELINE_JUNG, MADConfig.caching_only())
        assert _cost(cached, name).traffic.total <= _cost(base, name).traffic.total

    @pytest.mark.parametrize(
        "name", ["pt_add", "add", "pt_mult", "rotate", "mod_up", "mod_down"]
    )
    def test_caching_preserves_op_counts(self, name):
        """Section 3.1: 'the number of compute operations remains constant'."""
        base = PrimitiveCosts(BASELINE_JUNG, MADConfig.none())
        cached = PrimitiveCosts(BASELINE_JUNG, MADConfig.caching_only())
        assert _cost(cached, name).ops == _cost(base, name).ops

    def test_mod_down_merge_reduces_mult_ops(self):
        base = PrimitiveCosts(
            BASELINE_JUNG, MADConfig.caching_only()
        ).mult(35)
        merged = PrimitiveCosts(
            BASELINE_JUNG, MADConfig.caching_only().with_(mod_down_merge=True)
        ).mult(35)
        assert merged.ops.total < base.ops.total

    def test_key_compression_halves_key_reads(self):
        base = PrimitiveCosts(BASELINE_JUNG, MADConfig.none())
        compressed = PrimitiveCosts(
            BASELINE_JUNG, MADConfig(key_compression=True)
        )
        assert (
            compressed.ksk_inner_product(35).traffic.key_read * 2
            == base.ksk_inner_product(35).traffic.key_read
        )

    def test_key_compression_only_touches_key_stream(self):
        base = PrimitiveCosts(BASELINE_JUNG, MADConfig.none()).rotate(35)
        compressed = PrimitiveCosts(
            BASELINE_JUNG, MADConfig(key_compression=True)
        ).rotate(35)
        assert compressed.traffic.ct_read == base.traffic.ct_read
        assert compressed.traffic.ct_write == base.traffic.ct_write
        assert compressed.traffic.key_read < base.traffic.key_read

    def test_automorph_costs_zero_ops(self, baseline):
        assert baseline.automorph(35).ops.total == 0

    def test_cache_disables_unsupported_flags(self):
        # A 6 MB memory cannot run the O(alpha) optimization even if asked.
        costs = PrimitiveCosts(
            BASELINE_JUNG, MADConfig.all(), CacheModel.from_mb(6.5)
        )
        assert not costs.config.cache_alpha
        assert costs.config.cache_beta

    def test_costs_scale_with_level(self, baseline):
        assert (
            baseline.rotate(20).traffic.total < baseline.rotate(35).traffic.total
        )
        assert baseline.rotate(20).ops.total < baseline.rotate(35).ops.total


class TestValidationPaths:
    def test_limb_bounds(self, baseline):
        with pytest.raises(ValueError):
            baseline.add(0)
        with pytest.raises(ValueError):
            baseline.add(36)

    def test_rescale_needs_two_limbs(self, baseline):
        with pytest.raises(ValueError):
            baseline.rescale(1)

    def test_mult_needs_two_limbs(self, baseline):
        with pytest.raises(ValueError):
            baseline.mult(1)

    def test_mod_up_digit_bounds(self, baseline):
        with pytest.raises(ValueError):
            baseline.mod_up(35, 0)
        with pytest.raises(ValueError):
            baseline.mod_up(35, 13)

    def test_mod_raise_bounds(self, baseline):
        with pytest.raises(ValueError):
            baseline.mod_raise(5, 5)
        with pytest.raises(ValueError):
            baseline.mod_raise(0, 35)


# ----------------------------------------------------------------------
# The per-repetition loops, kept as the reference for the weighted sums
# ----------------------------------------------------------------------
def looped_digit_sizes(params, limbs):
    """Peel ``alpha``-limb digits off a ``limbs``-limb polynomial."""
    sizes = []
    remaining = limbs
    while remaining > 0:
        sizes.append(min(params.alpha, remaining))
        remaining -= params.alpha
    return sizes


def looped_key_switch(costs, limbs, include_mod_down=True):
    """KeySwitch folded with ``+``: one ModUp per digit."""
    reorder = costs.config.limb_reorder
    cost = costs.decomp(limbs)
    for digit_size in looped_digit_sizes(costs.params, limbs):
        cost = cost + costs.mod_up(
            limbs, digit_size, fused_intt=costs.config.cache_o1
        )
    cost = cost + costs.ksk_inner_product(limbs, count_output_writes=not reorder)
    if include_mod_down:
        cost = cost + costs.mod_down(limbs, polys=2, input_resident=reorder)
    return cost


def looped_rotate(costs, limbs):
    """Rotate folded with ``+``: one ModUp per digit."""
    n, limb = costs.params.ring_degree, costs.params.limb_bytes
    fused = costs.config.cache_o1
    reorder = costs.config.limb_reorder
    passes = 2 if fused else 4
    cost = CostReport(
        OpCount(mults=n * limbs, adds=n * limbs),
        MemTraffic(
            ct_read=passes * limbs * limb, ct_write=passes * limbs * limb
        ),
    )
    for digit_size in looped_digit_sizes(costs.params, limbs):
        cost = cost + costs.mod_up(limbs, digit_size, fused_intt=True)
    cost = cost + costs.ksk_inner_product(limbs, count_output_writes=not reorder)
    md = costs.mod_down(limbs, polys=2, input_resident=reorder)
    if fused:
        md = CostReport(md.ops, md.traffic + MemTraffic(ct_write=-limbs * limb))
        combine = MemTraffic(ct_read=limbs * limb, ct_write=limbs * limb)
    else:
        combine = MemTraffic(ct_read=2 * limbs * limb, ct_write=limbs * limb)
    return cost + md + CostReport(OpCount(adds=n * limbs), combine)


#: Every Fig. 2 and Fig. 3 rung, so both PtMatVecMult branches run.
LADDER_RUNGS = CACHING_LADDER + ALGORITHMIC_LADDER


@st.composite
def small_params(draw):
    """A small parameter set: any ``log_n``, ``max_limbs`` and legal ``dnum``."""
    max_limbs = draw(st.integers(2, 24))
    return CkksParams(
        log_n=draw(st.integers(10, 17)),
        log_q=30,
        max_limbs=max_limbs,
        dnum=draw(st.integers(1, max_limbs + 1)),
    )


def cost_models(params, config):
    """The model without a cache, with a one-limb cache and a large one."""
    return [
        PrimitiveCosts(params, config, cache)
        for cache in (
            None,
            CacheModel(params.limb_bytes),
            CacheModel(1000 * params.limb_bytes),
        )
    ]


class TestRepetitionsPricedOnce:
    """Pricing each digit size once equals one ModUp per digit."""

    @pytest.mark.parametrize(
        "config", [c for _, c in LADDER_RUNGS], ids=[n for n, _ in LADDER_RUNGS]
    )
    @settings(max_examples=8, deadline=None)
    @given(params=small_params())
    def test_key_switch_and_rotate_match_the_loops(self, config, params):
        for costs in cost_models(params, config):
            for limbs in range(1, params.max_limbs + 1):
                assert costs.key_switch(limbs) == looped_key_switch(costs, limbs)
                assert costs.key_switch(
                    limbs, include_mod_down=False
                ) == looped_key_switch(costs, limbs, include_mod_down=False)
                assert costs.rotate(limbs) == looped_rotate(costs, limbs)

    def test_each_digit_size_is_priced_once(self):
        # 35 limbs at alpha 12 are digits of 12, 12 and 11 limbs: two sizes.
        assert looped_digit_sizes(BASELINE_JUNG, 35) == [12, 12, 11]
        costs = PrimitiveCosts(BASELINE_JUNG, MADConfig.none())
        with state.capture() as (_, registry):
            costs.rotate(35)
        counters = registry.counters()
        assert counters["perf.primitives.mod_up"] == 2
        assert counters["perf.primitives.ksk_inner_product"] == 1
