"""Property-based invariants of the performance model."""

import dataclasses

from hypothesis import example, given, settings, strategies as st

from repro.params import BASELINE_JUNG, CkksParams
from repro.perf import (
    COST_SHAPE_FIELDS,
    BootstrapModel,
    CacheModel,
    MADConfig,
    PrimitiveCosts,
)

_CACHING_FLAGS = ("cache_o1", "cache_beta", "cache_alpha")
_ALGO_FLAGS = ("mod_down_merge", "mod_down_hoist", "key_compression")


def _config(bits):
    flags = dict(zip(_CACHING_FLAGS + _ALGO_FLAGS, bits))
    flags["limb_reorder"] = flags["cache_alpha"] and bits[-1]
    # limb_reorder rides with cache_alpha; reuse the last bit for variety.
    return MADConfig(**flags)


_config_strategy = st.lists(st.booleans(), min_size=6, max_size=6).map(_config)
_limb_strategy = st.integers(2, 35)


class TestMonotonicity:
    @settings(max_examples=20, deadline=None)
    @given(limbs=st.integers(2, 34), config=_config_strategy)
    def test_costs_increase_with_limbs(self, limbs, config):
        costs = PrimitiveCosts(BASELINE_JUNG, config)
        for op in ("add", "pt_mult", "rotate", "mult"):
            lo = getattr(costs, op)(limbs)
            hi = getattr(costs, op)(limbs + 1)
            assert hi.ops.total >= lo.ops.total
            assert hi.traffic.total >= lo.traffic.total

    @settings(max_examples=25, deadline=None)
    @given(limbs=_limb_strategy, config=_config_strategy)
    def test_traffic_never_negative(self, limbs, config):
        costs = PrimitiveCosts(BASELINE_JUNG, config)
        for op in ("pt_add", "add", "pt_mult", "decomp", "rotate", "mult"):
            traffic = getattr(costs, op)(limbs).traffic
            assert traffic.ct_read >= 0
            assert traffic.ct_write >= 0
            assert traffic.key_read >= 0
            assert traffic.pt_read >= 0

    @settings(max_examples=25, deadline=None)
    @given(limbs=_limb_strategy, bits=st.lists(st.booleans(), min_size=3, max_size=3))
    def test_caching_flags_never_increase_traffic(self, limbs, bits):
        flags = dict(zip(_CACHING_FLAGS, bits))
        base = PrimitiveCosts(BASELINE_JUNG, MADConfig.none())
        cached = PrimitiveCosts(BASELINE_JUNG, MADConfig(**flags))
        for op in ("pt_mult", "rotate", "mult"):
            assert (
                getattr(cached, op)(limbs).traffic.total
                <= getattr(base, op)(limbs).traffic.total
            )

    @settings(max_examples=25, deadline=None)
    @given(limbs=_limb_strategy, bits=st.lists(st.booleans(), min_size=3, max_size=3))
    def test_caching_flags_preserve_ops(self, limbs, bits):
        flags = dict(zip(_CACHING_FLAGS, bits))
        base = PrimitiveCosts(BASELINE_JUNG, MADConfig.none())
        cached = PrimitiveCosts(BASELINE_JUNG, MADConfig(**flags))
        for op in ("pt_add", "add", "pt_mult", "rotate"):
            assert getattr(cached, op)(limbs).ops == getattr(base, op)(limbs).ops


class TestBootstrapInvariants:
    @settings(max_examples=10, deadline=None)
    @given(config=_config_strategy)
    def test_phases_sum_to_total(self, config):
        breakdown = BootstrapModel(BASELINE_JUNG, config).cost()
        summed_ops = sum(c.ops.total for c in breakdown.phases().values())
        assert summed_ops == breakdown.total.ops.total

    @settings(max_examples=10, deadline=None)
    @given(
        max_limbs=st.integers(25, 42),
        dnum=st.integers(2, 4),
    )
    def test_bootstrap_cost_scales_with_chain_length(self, max_limbs, dnum):
        def total(limbs):
            params = CkksParams(
                log_n=17, log_q=50, max_limbs=limbs, dnum=dnum, fft_iter=3
            )
            return BootstrapModel(params).total_cost()

        lo = total(max_limbs)
        hi = total(max_limbs + 2)
        assert hi.ops.total > lo.ops.total
        assert hi.traffic.total > lo.traffic.total

    @settings(max_examples=10, deadline=None)
    @given(config=_config_strategy)
    def test_key_compression_exactly_halves_keys(self, config):
        if config.key_compression:
            config = config.with_(key_compression=False)
        with_compression = config.with_(key_compression=True)
        base = BootstrapModel(BASELINE_JUNG, config).total_cost()
        compressed = BootstrapModel(BASELINE_JUNG, with_compression).total_cost()
        assert compressed.traffic.key_read * 2 == base.traffic.key_read
        assert compressed.ops == base.ops


class TestCostReportAlgebra:
    @settings(max_examples=25, deadline=None)
    @given(limbs=_limb_strategy, k=st.integers(0, 10))
    def test_scaling_matches_repetition(self, limbs, k):
        cost = PrimitiveCosts(BASELINE_JUNG).rotate(limbs)
        repeated = cost.scaled(k)
        assert repeated.ops.total == cost.ops.total * k
        assert repeated.traffic.total == cost.traffic.total * k


#: The ``CkksParams`` fields outside the cost shape: the model must ignore them.
_UNREAD_FIELDS = ("log_q", "log_special", "bit_precision")


def _fields_that_move(cost_of, params, replacements):
    """Names in ``replacements`` whose new value changes ``cost_of(params)``.

    Each field is replaced on its own, then all of them together (reported
    as ``"all"``), so two changes that cancel out cannot hide each other.
    """
    base = cost_of(params)
    moved = [
        name
        for name, value in replacements.items()
        if cost_of(dataclasses.replace(params, **{name: value})) != base
    ]
    if cost_of(dataclasses.replace(params, **replacements)) != base:
        moved.append("all")
    return moved


@st.composite
def _bootstrappable_params(draw):
    word_bytes = draw(st.sampled_from((4, 8)))
    fft_iter = draw(st.integers(1, 6))
    eval_mod_depth = draw(st.integers(0, 9))
    max_limbs = 2 * fft_iter + eval_mod_depth + draw(st.integers(1, 20))
    return CkksParams(
        log_n=draw(st.integers(12, 17)),
        log_q=draw(st.integers(20, 8 * word_bytes - 2)),
        max_limbs=max_limbs,
        dnum=draw(st.integers(1, min(6, max_limbs + 1))),
        fft_iter=fft_iter,
        log_special=draw(st.none() | st.integers(20, 60)),
        eval_mod_depth=eval_mod_depth,
        bit_precision=draw(st.integers(8, 30)),
        word_bytes=word_bytes,
    )


@st.composite
def _unread_replacements(draw, params):
    """Other valid values for every field outside the cost shape."""
    return {
        "log_q": draw(
            st.integers(20, 8 * params.word_bytes - 2).filter(
                lambda v: v != params.log_q
            )
        ),
        "log_special": draw(
            (st.none() | st.integers(20, 60)).filter(
                lambda v: v != params.log_special
            )
        ),
        "bit_precision": draw(
            st.integers(8, 30).filter(lambda v: v != params.bit_precision)
        ),
    }


class TestCostShape:
    """The sweep memo keys bootstrap costs on ``cost_shape(params)``; these
    tests keep that key from silently dropping a field the model reads."""

    def test_every_params_field_is_classified(self):
        fields = {f.name for f in dataclasses.fields(CkksParams)}
        assert not set(COST_SHAPE_FIELDS) & set(_UNREAD_FIELDS)
        assert fields == set(COST_SHAPE_FIELDS) | set(_UNREAD_FIELDS)

    @settings(max_examples=15, deadline=None)
    @given(data=st.data(), params=_bootstrappable_params())
    def test_bootstrap_ledger_ignores_fields_outside_the_shape(self, data, params):
        replacements = data.draw(_unread_replacements(params))
        for config in (MADConfig.none(), MADConfig.all()):
            for cache in (None, CacheModel.from_mb(2), CacheModel.from_mb(256)):

                def ledger(p):
                    return BootstrapModel(p, config, cache).ledger().by_label()

                assert _fields_that_move(ledger, params, replacements) == []

    def test_helper_reports_a_real_dependence(self):
        """Negative control: HELR's level budget reads ``log_q``
        (``levels_per_iteration``), so its workload cost moves with it."""
        from repro.apps import helr_training, workload_cost

        def helr_cost(p):
            return workload_cost(helr_training(p), p, MADConfig.all()).total

        assert _fields_that_move(helr_cost, BASELINE_JUNG, {"log_q": 40}) == [
            "log_q",
            "all",
        ]


@st.composite
def _same_level_geometry(draw):
    """Two parameter sets with equal ``(log_n, word_bytes, alpha)`` whose
    ``max_limbs``, ``dnum``, ``fft_iter`` and ``log_q`` all differ."""
    word_bytes = draw(st.sampled_from((4, 8)))
    log_n = draw(st.integers(12, 17))
    alpha = draw(st.integers(2, 12))
    dnums = draw(
        st.lists(st.integers(1, 6), min_size=2, max_size=2, unique=True)
    )
    # ceil((L + 1) / dnum) == alpha  <=>  (alpha - 1) dnum <= L < alpha dnum.
    first = draw(st.integers((alpha - 1) * dnums[0], alpha * dnums[0] - 1))
    second = draw(
        st.integers((alpha - 1) * dnums[1], alpha * dnums[1] - 1).filter(
            lambda limbs: limbs != first
        )
    )
    fft_iters = draw(
        st.lists(st.integers(1, 6), min_size=2, max_size=2, unique=True)
    )
    log_qs = draw(
        st.lists(
            st.integers(20, 8 * word_bytes - 2), min_size=2, max_size=2, unique=True
        )
    )
    pair = tuple(
        CkksParams(
            log_n=log_n,
            log_q=log_q,
            max_limbs=max_limbs,
            dnum=dnum,
            fft_iter=fft_iter,
            word_bytes=word_bytes,
        )
        for max_limbs, dnum, fft_iter, log_q in zip(
            (first, second), dnums, fft_iters, log_qs
        )
    )
    assert pair[0].alpha == pair[1].alpha == alpha
    return pair


@st.composite
def _bootstrappable_level_geometry(draw):
    """Two parameter sets that can both bootstrap, with equal ``(log_n,
    word_bytes, alpha, fft_iter)`` and different ``dnum``: their DFT
    stages share a diagonal count, so their walks share table keys
    wherever their levels meet."""
    word_bytes = draw(st.sampled_from((4, 8)))
    log_n = draw(st.integers(12, 17))
    alpha = draw(st.integers(2, 12))
    fft_iter = draw(st.integers(1, 6))
    # The walk consumes 2 fft_iter + 9 levels and must leave one; alpha
    # dnum > least leaves some L >= least with ceil((L + 1) / dnum) ==
    # alpha, i.e. (alpha - 1) dnum <= L < alpha dnum.
    least = 2 * fft_iter + 10
    dnums = draw(
        st.lists(
            st.integers(least // alpha + 1, least // alpha + 4),
            min_size=2,
            max_size=2,
            unique=True,
        )
    )
    pair = tuple(
        CkksParams(
            log_n=log_n,
            log_q=draw(st.integers(20, 8 * word_bytes - 2)),
            max_limbs=draw(
                st.integers(max(least, (alpha - 1) * dnum), alpha * dnum - 1)
            ),
            dnum=dnum,
            fft_iter=fft_iter,
            word_bytes=word_bytes,
        )
        for dnum in dnums
    )
    assert pair[0].alpha == pair[1].alpha == alpha
    assert all(p.supports_bootstrapping() for p in pair)
    return pair


def _tabled_prices(costs, limbs, diagonals):
    """Every op the level-cost table holds, priced at ``limbs`` (the
    transform at each diagonal count in ``diagonals``)."""
    from repro.perf.matvec import pt_mat_vec_mult_cost

    prices = {"add": costs.add(limbs)}
    if limbs >= 2:  # the other three rescale
        prices["mult"] = costs.mult(limbs)
        prices["pt_mult"] = costs.pt_mult(limbs)
        for d in diagonals:
            prices[f"matvec/{d}"] = pt_mat_vec_mult_cost(costs, limbs, d)
    return prices


_diagonal_counts = st.lists(
    st.integers(3, 64), min_size=2, max_size=2, unique=True
)


def _level_caches(pair):
    """No cache, 2 MB, 256 MB, and one that holds ``2 * dnum`` limbs of
    the pair's smaller ``dnum`` only, so ``fits_beta`` differs."""
    small = min(p.dnum for p in pair)
    beta_split = CacheModel(2 * small * pair[0].limb_bytes)
    assert [beta_split.fits_beta(p) for p in pair].count(True) == 1
    return (None, CacheModel.from_mb(2), CacheModel.from_mb(256), beta_split)


class TestLevelTable:
    """A sweep run prices ``mult``, ``pt_mult``, ``add`` and
    ``pt_mat_vec_mult_cost`` once per ``(op, arguments, N, limb bytes,
    alpha, gated config)``; these tests keep that key complete."""

    @settings(max_examples=15, deadline=None)
    @given(pair=_same_level_geometry(), diagonals=_diagonal_counts)
    def test_equal_level_keys_price_equal(self, pair, diagonals):
        levels = range(1, min(p.max_limbs for p in pair) + 1)
        for config in (MADConfig.none(), MADConfig.all()):
            for cache in _level_caches(pair):
                a, b = (PrimitiveCosts(p, config, cache) for p in pair)
                # fits_beta reads dnum: the gated configs, and so the
                # keys, differ exactly when the cache splits the pair.
                assert (a.level_key == b.level_key) == (a.config == b.config)
                if a.level_key != b.level_key:
                    continue
                for limbs in levels:
                    assert _tabled_prices(a, limbs, diagonals) == _tabled_prices(
                        b, limbs, diagonals
                    )

    @settings(max_examples=15, deadline=None)
    @given(pair=_bootstrappable_level_geometry())
    # SlotToCoeff of the second walk runs at the first's CoeffToSlot
    # levels, and the beta-splitting cache gates the two apart.
    @example(
        pair=(
            CkksParams(log_n=17, log_q=50, max_limbs=23, dnum=2),
            CkksParams(log_n=17, log_q=54, max_limbs=35, dnum=3),
        )
    )
    def test_a_shared_table_prices_as_none(self, pair):
        for config in (MADConfig.none(), MADConfig.all()):
            for cache in _level_caches(pair):
                shared = {}
                for params in pair:
                    tabled = BootstrapModel(
                        params, config, cache, level_costs=shared
                    )
                    fresh = BootstrapModel(params, config, cache)
                    assert list(tabled.ledger()) == list(fresh.ledger())

    def test_the_gated_config_moves_a_price(self):
        """Negative control for the key's config: a cache that holds the
        raised digits of one ``dnum`` but not the other changes the
        transform's digit reads, so a key on the requested config would
        hand one parameter set the other's cost."""
        from repro.perf.matvec import pt_mat_vec_mult_cost

        pair = (
            CkksParams(log_n=17, log_q=50, max_limbs=23, dnum=2),
            CkksParams(log_n=17, log_q=54, max_limbs=35, dnum=3),
        )
        assert pair[0].alpha == pair[1].alpha == 12
        cache = _level_caches(pair)[-1]
        a, b = (PrimitiveCosts(p, MADConfig.all(), cache) for p in pair)
        assert a.config.cache_beta and not b.config.cache_beta
        assert pt_mat_vec_mult_cost(a, 20, 16) != pt_mat_vec_mult_cost(b, 20, 16)

    def test_a_different_alpha_moves_mult(self):
        """Negative control for the key's alpha: same N and word size,
        alpha 12 against 18."""
        other = dataclasses.replace(BASELINE_JUNG, dnum=2)
        assert other.alpha != BASELINE_JUNG.alpha
        for config in (MADConfig.none(), MADConfig.all()):
            a, b = (PrimitiveCosts(p, config) for p in (BASELINE_JUNG, other))
            assert a.level_key != b.level_key
            assert all(a.mult(limbs) != b.mult(limbs) for limbs in range(2, 36))


class TestPricingPaths:
    """The untraced total, the ledger and the traced span tree price the
    same walk, with or without a shared level-cost table, and a tabled
    level's PtMatVecMult units price every diagonal count as
    ``pt_mat_vec_mult_cost`` does."""

    @settings(max_examples=4, deadline=None)
    @given(pair=_bootstrappable_level_geometry())
    @example(
        pair=(
            CkksParams(log_n=17, log_q=50, max_limbs=23, dnum=2),
            CkksParams(log_n=17, log_q=54, max_limbs=35, dnum=3),
        )
    )
    def test_every_path_prices_the_same(self, pair):
        from repro.obs import state
        from repro.perf import CostReport
        from repro.perf.matvec import MatVecUnits, pt_mat_vec_mult_cost

        for config in (MADConfig.none(), MADConfig.all()):
            for cache in _level_caches(pair):
                costs = [PrimitiveCosts(p, config, cache) for p in pair]
                table_free = {}
                shared = {}
                for table in (None, shared):
                    for params in pair:
                        model = BootstrapModel(
                            params, config, cache, level_costs=table
                        )
                        untraced = model.total_cost()
                        assert table_free.setdefault(params, untraced) == untraced
                        assert model.ledger().total == untraced
                        with state.capture() as (tracer, _):
                            assert model.total_cost() == untraced
                        (root,) = tracer.roots
                        assert root.total_cost() == untraced
                tabled = [u for u in shared.values() if isinstance(u, MatVecUnits)]
                assert tabled
                for units in tabled:
                    # The pair's first walk fills an entry the second may
                    # share: price it as the last parameter set that can.
                    direct = [
                        c
                        for c in costs
                        if c.level_key == units.costs.level_key
                        and units.limbs <= c.params.max_limbs
                    ][-1]
                    for diagonals in range(1, 65):
                        assert CostReport.weighted_sum(
                            units.terms(diagonals)
                        ) == pt_mat_vec_mult_cost(direct, units.limbs, diagonals)
