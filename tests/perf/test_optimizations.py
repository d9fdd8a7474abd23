import pytest

from repro.obs import state
from repro.params import BASELINE_JUNG
from repro.perf import (
    ALGORITHMIC_LADDER,
    CACHING_LADDER,
    CacheModel,
    MADConfig,
)


class TestValidation:
    def test_limb_reorder_requires_alpha(self):
        with pytest.raises(ValueError):
            MADConfig(limb_reorder=True)

    def test_limb_reorder_with_alpha_ok(self):
        cfg = MADConfig(cache_alpha=True, limb_reorder=True)
        assert cfg.limb_reorder


class TestPresets:
    def test_none_has_nothing(self):
        cfg = MADConfig.none()
        assert not any(
            (
                cfg.cache_o1,
                cfg.cache_beta,
                cfg.cache_alpha,
                cfg.limb_reorder,
                cfg.mod_down_merge,
                cfg.mod_down_hoist,
                cfg.key_compression,
            )
        )

    def test_caching_only_excludes_algorithmic(self):
        cfg = MADConfig.caching_only()
        assert cfg.cache_o1 and cfg.cache_alpha and cfg.limb_reorder
        assert not cfg.mod_down_merge
        assert not cfg.mod_down_hoist
        assert not cfg.key_compression

    def test_all_enables_everything(self):
        cfg = MADConfig.all()
        assert all(
            (
                cfg.cache_o1,
                cfg.cache_beta,
                cfg.cache_alpha,
                cfg.limb_reorder,
                cfg.mod_down_merge,
                cfg.mod_down_hoist,
                cfg.key_compression,
            )
        )

    def test_with_changes_flags(self):
        cfg = MADConfig.none().with_(cache_o1=True)
        assert cfg.cache_o1
        assert not cfg.cache_beta


class TestForCache:
    def test_large_cache_enables_all(self):
        cfg = MADConfig.for_cache(CacheModel.from_mb(32), BASELINE_JUNG)
        assert cfg == MADConfig.all()

    def test_six_mb_stops_at_beta(self):
        cfg = MADConfig.for_cache(CacheModel.from_mb(6.5), BASELINE_JUNG)
        assert cfg.cache_o1 and cfg.cache_beta
        assert not cfg.cache_alpha and not cfg.limb_reorder
        # Algorithmic optimizations are memory-independent.
        assert cfg.mod_down_merge and cfg.mod_down_hoist and cfg.key_compression

    def test_tiny_cache_keeps_algorithmic_only(self):
        cfg = MADConfig.for_cache(CacheModel.from_mb(0.5), BASELINE_JUNG)
        assert not cfg.cache_o1
        assert cfg.key_compression

    def test_an_off_flag_queries_no_threshold(self):
        with state.capture() as (_, registry):
            cfg = MADConfig(cache_o1=True, mod_down_merge=True).fitted(
                CacheModel.from_mb(0.5), BASELINE_JUNG
            )
        assert cfg == MADConfig(mod_down_merge=True)
        assert {
            name for name in registry.counters() if name.startswith("perf.cache.")
        } == {"perf.cache.o1.queries", "perf.cache.o1.nofit"}


class TestLadders:
    def test_caching_ladder_is_cumulative(self):
        seen_enabled = set()
        for _, cfg in CACHING_LADDER:
            enabled = {
                name
                for name in (
                    "cache_o1",
                    "cache_beta",
                    "cache_alpha",
                    "limb_reorder",
                )
                if getattr(cfg, name)
            }
            assert seen_enabled <= enabled  # never loses an optimization
            seen_enabled = enabled
        assert seen_enabled == {
            "cache_o1",
            "cache_beta",
            "cache_alpha",
            "limb_reorder",
        }

    def test_caching_ladder_has_no_algorithmic_flags(self):
        for _, cfg in CACHING_LADDER:
            assert not cfg.mod_down_merge
            assert not cfg.mod_down_hoist
            assert not cfg.key_compression

    def test_algorithmic_ladder_builds_on_caching(self):
        for _, cfg in ALGORITHMIC_LADDER:
            assert cfg.cache_o1 and cfg.cache_alpha

    def test_algorithmic_ladder_ends_at_all(self):
        assert ALGORITHMIC_LADDER[-1][1] == MADConfig.all()
