import itertools

import pytest

from repro.obs import state
from repro.params import BASELINE_JUNG, MAD_OPTIMAL, CkksParams
from repro.perf import (
    ALGORITHMIC_LADDER,
    CACHING_LADDER,
    BootstrapModel,
    CacheModel,
    MADConfig,
    PrimitiveCosts,
    pt_mat_vec_mult_cost,
)
from repro.perf.bootstrap import bootstrap_plan, dft_diagonals


@pytest.fixture(scope="module")
def baseline_total():
    return BootstrapModel(BASELINE_JUNG, MADConfig.none()).total_cost()


class TestBaselineCalibration:
    """Bootstrap totals against Table 4's last column (149.5 Gops,
    208.0 GB, AI 0.72) — reproduced within ~15%."""

    def test_ops_near_paper(self, baseline_total):
        assert baseline_total.giga_ops() == pytest.approx(149.5, rel=0.15)

    def test_traffic_near_paper(self, baseline_total):
        assert baseline_total.gigabytes() == pytest.approx(208.0, rel=0.15)

    def test_arithmetic_intensity_near_paper(self, baseline_total):
        assert baseline_total.arithmetic_intensity == pytest.approx(0.72, rel=0.1)

    def test_ai_below_one(self, baseline_total):
        """The headline observation: bootstrapping AI < 1 op/byte."""
        assert baseline_total.arithmetic_intensity < 1.0


class TestPhaseAccounting:
    def test_phases_sum_to_total(self):
        breakdown = BootstrapModel(BASELINE_JUNG).cost()
        total = breakdown.total
        summed = sum(
            (c for c in breakdown.phases().values()),
            start=type(total)(),
        )
        assert summed == total

    def test_dft_phases_dominate_traffic(self):
        breakdown = BootstrapModel(BASELINE_JUNG).cost()
        dft = (
            breakdown.coeff_to_slot.traffic.total
            + breakdown.slot_to_coeff.traffic.total
        )
        assert dft > breakdown.mod_raise.traffic.total

    def test_dft_diagonals_baseline(self):
        # n^(1/fftIter) = (2^16)^(1/3) ~= 41.
        assert dft_diagonals(BASELINE_JUNG) == 41

    def test_dft_diagonals_mad_optimal(self):
        # (2^16)^(1/6) ~= 7.
        assert dft_diagonals(MAD_OPTIMAL) == 7

    def test_dft_diagonals_is_the_integer_ceiling_root(self):
        def params(log_n, fft_iter):
            return CkksParams(
                log_n=log_n, log_q=50, max_limbs=35, dnum=3, fft_iter=fft_iter
            )

        # The float root of 2^15 at fftIter 5 is 8.000000000000002.
        assert dft_diagonals(params(16, 5)) == 8
        for log_n in range(2, 21):
            slots = 1 << (log_n - 1)
            for fft_iter in range(1, 31):
                root = next(r for r in itertools.count(1) if r**fft_iter >= slots)
                assert dft_diagonals(params(log_n, fft_iter)) == max(2, root), (
                    log_n,
                    fft_iter,
                )

    def test_unbootstrappable_params_rejected(self):
        params = CkksParams(log_n=13, log_q=40, max_limbs=10, dnum=2)
        with pytest.raises(ValueError):
            BootstrapModel(params)


_LADDER_CONFIGS = [
    pytest.param(config, id=name)
    for name, config in (*CACHING_LADDER, *ALGORITHMIC_LADDER)
]
_PLAN_PARAMS = [
    pytest.param(BASELINE_JUNG, id="baseline"),
    pytest.param(MAD_OPTIMAL, id="optimal"),
]


def _leaves(span):
    """``span``'s leaf spans in pre-order."""
    if not span.children:
        yield span
    for child in span.children:
        yield from _leaves(child)


@pytest.mark.parametrize("config", _LADDER_CONFIGS)
@pytest.mark.parametrize("params", _PLAN_PARAMS)
class TestBootstrapPlan:
    """The ledger, the span tree and memsim all follow
    :func:`bootstrap_plan`; these tests pin the model side to it."""

    def test_ledger_entries_are_the_plan_steps(self, params, config):
        plan = bootstrap_plan(params)
        costs = PrimitiveCosts(params, config)
        ledger = list(BootstrapModel(params, config).ledger())
        assert [label for label, _ in ledger] == [step.label for step in plan]
        for step, (_, cost) in zip(plan, ledger):
            if step.op == "pt_mat_vec_mult":
                once = pt_mat_vec_mult_cost(costs, *step.args)
            else:
                once = getattr(costs, step.op)(*step.args)
            assert cost == once.scaled(step.count), step

    def test_traced_leaf_spans_are_the_plan_steps(self, params, config):
        model = BootstrapModel(params, config)
        with state.capture() as (tracer, _):
            ledger = list(model.ledger())
        (root,) = tracer.roots
        leaves = list(_leaves(root))
        assert [(leaf.name, leaf.meta) for leaf in leaves] == [
            (step.spans[-1][0], dict(step.spans[-1][1])) for step in model.plan
        ]
        assert [leaf.cost for leaf in leaves] == [cost for _, cost in ledger]

    def test_every_step_runs_inside_the_chain(self, params, config):
        for step in bootstrap_plan(params):
            level = dict(step.spans[-1][1])["level"]
            assert 1 <= level <= params.max_limbs, step
            if step.op == "mod_raise":
                assert step.args == (2, level)
            else:
                assert step.args[0] == level, step

    def test_the_walk_ends_at_the_output_level(self, params, config):
        """ModRaise lifts to ``L``; then the walk consumes every level from
        ``L`` down to the one above the output, in order."""
        raise_step, *rest = bootstrap_plan(params)
        assert raise_step.args == (2, params.max_limbs)
        levels = [step.args[0] for step in rest]
        assert levels == sorted(levels, reverse=True)
        assert sorted(set(levels), reverse=True) == list(
            range(params.max_limbs, params.bootstrap_output_limbs, -1)
        )


class TestCachingLadder:
    """Figure 2: cumulative DRAM reduction (paper: 15/22/44/52 %)."""

    def test_monotone_reduction(self, baseline_total):
        previous = baseline_total.traffic.total
        for _, cfg in CACHING_LADDER[1:]:
            current = BootstrapModel(BASELINE_JUNG, cfg).total_cost().traffic.total
            assert current <= previous
            previous = current

    def test_ops_unchanged_across_ladder(self, baseline_total):
        for _, cfg in CACHING_LADDER:
            total = BootstrapModel(BASELINE_JUNG, cfg).total_cost()
            assert total.ops == baseline_total.ops

    def test_full_caching_reduction_in_paper_range(self, baseline_total):
        final = BootstrapModel(
            BASELINE_JUNG, MADConfig.caching_only()
        ).total_cost()
        reduction = 1 - final.traffic.total / baseline_total.traffic.total
        # Paper reports 52%; accept the 35-60% band for our re-derivation.
        assert 0.35 <= reduction <= 0.60

    def test_key_reads_constant_across_caching(self, baseline_total):
        """'The switching key reads remain constant for all of the caching
        optimizations.'"""
        for _, cfg in CACHING_LADDER:
            total = BootstrapModel(BASELINE_JUNG, cfg).total_cost()
            assert total.traffic.key_read == baseline_total.traffic.key_read


class TestAlgorithmicLadder:
    """Figure 3: merge -6% ops, hoisting -34% ops / +25% key reads,
    compression -50% key reads."""

    @pytest.fixture(scope="class")
    def ladder(self):
        return {
            name: BootstrapModel(BASELINE_JUNG, cfg).total_cost()
            for name, cfg in ALGORITHMIC_LADDER
        }

    def test_merge_reduces_ops_about_six_percent(self, ladder):
        base = ladder["Baseline (cached)"]
        merged = ladder["ModDown Merge"]
        reduction = 1 - merged.ops.total / base.ops.total
        assert 0.03 <= reduction <= 0.10

    def test_hoisting_reduces_ops_substantially(self, ladder):
        merged = ladder["ModDown Merge"]
        hoisted = ladder["ModDown Hoisting"]
        reduction = 1 - hoisted.ops.total / merged.ops.total
        assert 0.25 <= reduction <= 0.50

    def test_hoisting_increases_key_reads_about_quarter(self, ladder):
        merged = ladder["ModDown Merge"]
        hoisted = ladder["ModDown Hoisting"]
        increase = hoisted.traffic.key_read / merged.traffic.key_read - 1
        assert 0.10 <= increase <= 0.40

    def test_compression_halves_key_reads(self, ladder):
        hoisted = ladder["ModDown Hoisting"]
        compressed = ladder["Key Compression"]
        assert compressed.traffic.key_read == pytest.approx(
            hoisted.traffic.key_read / 2
        )

    def test_compression_leaves_ops_alone(self, ladder):
        assert (
            ladder["Key Compression"].ops == ladder["ModDown Hoisting"].ops
        )


class TestHeadlineClaims:
    def test_ai_improves_at_least_2x_with_all_optimizations(self, baseline_total):
        optimized = BootstrapModel(MAD_OPTIMAL, MADConfig.all()).total_cost()
        ratio = optimized.arithmetic_intensity / baseline_total.arithmetic_intensity
        # Paper claims 3x; our re-derivation achieves >2x.
        assert ratio >= 2.0

    def test_optimized_traffic_under_half_of_baseline(self, baseline_total):
        optimized = BootstrapModel(MAD_OPTIMAL, MADConfig.all()).total_cost()
        assert optimized.traffic.total < 0.5 * baseline_total.traffic.total

    def test_cache_limits_respected(self):
        # With only 6 MB, even MADConfig.all() cannot apply alpha caching.
        small = BootstrapModel(
            BASELINE_JUNG, MADConfig.all(), CacheModel.from_mb(6.5)
        ).total_cost()
        large = BootstrapModel(BASELINE_JUNG, MADConfig.all()).total_cost()
        assert small.traffic.total > large.traffic.total
