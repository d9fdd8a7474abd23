import pytest

from repro.params import BASELINE_JUNG, MAD_OPTIMAL
from repro.perf import CacheModel


class TestConstruction:
    def test_rejects_nonpositive(self):
        with pytest.raises(ValueError):
            CacheModel(0)

    def test_from_mb(self):
        assert CacheModel.from_mb(32).size_bytes == 32 * 10**6
        assert CacheModel.from_mb(32).megabytes == pytest.approx(32.0)


class TestCapacity:
    def test_limb_capacity_at_full_scale(self):
        # One limb of an N=2^17 element is ~1.05 MB.
        assert CacheModel.from_mb(32).capacity_limbs(BASELINE_JUNG) == 30

    def test_tiny_cache_holds_nothing(self):
        assert CacheModel.from_mb(0.5).capacity_limbs(BASELINE_JUNG) == 0


class TestOptimizationThresholds:
    """The paper's cache sizes: 1 MB (O(1)), 6 MB (O(beta)), 27 MB (O(alpha))."""

    def test_one_mb_enables_o1_only(self):
        cache = CacheModel.from_mb(1.1)
        assert cache.fits_o1(BASELINE_JUNG)
        assert not cache.fits_beta(BASELINE_JUNG)
        assert not cache.fits_alpha(BASELINE_JUNG)

    def test_six_mb_enables_beta(self):
        cache = CacheModel.from_mb(6.5)
        assert cache.fits_beta(BASELINE_JUNG)
        assert not cache.fits_alpha(BASELINE_JUNG)

    def test_27_mb_enables_alpha(self):
        cache = CacheModel.from_mb(28.5)
        assert cache.fits_alpha(BASELINE_JUNG)
        assert cache.fits_limb_reorder(BASELINE_JUNG)

    def test_alpha_threshold_is_alpha_plus_three_limbs(self):
        # alpha = 12 at baseline parameters -> 15 limbs (~15.7 MB).
        assert not CacheModel.from_mb(15).fits_alpha(BASELINE_JUNG)
        assert CacheModel.from_mb(16).fits_alpha(BASELINE_JUNG)

    def test_32_mb_enables_everything_baseline(self):
        cache = CacheModel.from_mb(32)
        assert cache.fits_o1(BASELINE_JUNG)
        assert cache.fits_beta(BASELINE_JUNG)
        assert cache.fits_alpha(BASELINE_JUNG)

    def test_32_mb_supports_mad_optimal_alpha(self):
        # alpha = 21 for the MAD-optimal set: 24 limbs fit in 32 MB, which
        # is what makes the paper's 32 MB design point work.
        assert CacheModel.from_mb(32).fits_alpha(MAD_OPTIMAL)
        assert not CacheModel.from_mb(20).fits_alpha(MAD_OPTIMAL)


class TestByteConvention:
    """Decimal-MB sizes vs binary-MiB limbs (see perf/cache.py docstring).

    `MB = 10**6` while one baseline limb is `2**20` bytes, so the paper's
    "1 MB ~ one limb" shorthand is off by ~4.9% — a literal 1 MB cache
    holds zero whole limbs.  These tests pin the convention so neither
    side drifts.
    """

    def test_mb_is_decimal(self):
        from repro.perf.cache import MB

        assert MB == 10**6

    def test_baseline_limb_is_one_mebibyte(self):
        assert BASELINE_JUNG.limb_bytes == 2**20

    def test_literal_one_mb_holds_zero_limbs(self):
        # The documented quirk: the paper's "1 MB" limb needs 1.048576
        # decimal MB.
        assert CacheModel.from_mb(1.0).capacity_limbs(BASELINE_JUNG) == 0
        assert CacheModel.from_mb(1.05).capacity_limbs(BASELINE_JUNG) == 1

    @pytest.mark.parametrize("megabytes", [1, 2, 6, 8, 16, 27, 32, 64, 192, 256])
    def test_capacity_matches_threshold_arithmetic(self, megabytes):
        """capacity_limbs and every fits_* threshold use the same units."""
        cache = CacheModel.from_mb(megabytes)
        limbs = cache.capacity_limbs(BASELINE_JUNG)
        # Same floor division the simulator's capacity_blocks performs.
        assert limbs == (megabytes * 10**6) // 2**20
        assert cache.fits_o1(BASELINE_JUNG) == (limbs >= 1)
        assert cache.fits_beta(BASELINE_JUNG) == (
            limbs >= 2 * BASELINE_JUNG.dnum
        )
        assert cache.fits_alpha(BASELINE_JUNG) == (
            limbs >= BASELINE_JUNG.alpha + 3
        )
        assert cache.fits_limb_reorder(BASELINE_JUNG) == cache.fits_alpha(
            BASELINE_JUNG
        )

    def test_simulator_agrees_with_cache_model_capacity(self):
        """The memsim replay and the analytical thresholds must agree on
        what a given cache size holds (same floor division)."""
        from repro.memsim.simulator import MemorySimulator

        for megabytes in (1, 2, 8, 27, 32, 192):
            size = megabytes * 10**6
            assert MemorySimulator(size).capacity_blocks(
                BASELINE_JUNG.limb_bytes
            ) == CacheModel(size).capacity_limbs(BASELINE_JUNG)

    def test_from_mb_rounds_instead_of_truncating(self):
        """The float-truncation bug: ``261.095424 * 10**6`` (exactly 249
        MiB-limbs) evaluates to 261095423.99999997, so ``int()`` lands
        one byte short and flips capacity_limbs from 249 to 248 exactly
        at a working-set boundary.  ``from_mb`` must round."""
        from repro.perf.cache import mb_to_bytes

        assert int(261.095424 * 10**6) == 261095423  # the bug, pinned
        assert mb_to_bytes(261.095424) == 261095424
        assert CacheModel.from_mb(261.095424).size_bytes == 249 * 2**20
        assert CacheModel.from_mb(261.095424).capacity_limbs(BASELINE_JUNG) == 249

    @pytest.mark.parametrize("limbs", [1, 6, 15, 24, 25, 30, 249, 251, 489])
    def test_exact_limb_budgets_survive_mb_round_trip(self, limbs):
        """A cache sized as exactly N limbs (expressed as its shortest
        decimal-MB literal) must hold exactly N limbs — no off-by-one
        from float noise.  249/251/489 are the budgets whose literals
        truncate one byte short without rounding."""
        megabytes = round(limbs * 2**20 / 10**6, 6)
        cache = CacheModel.from_mb(megabytes)
        assert cache.size_bytes == limbs * 2**20
        assert cache.capacity_limbs(BASELINE_JUNG) == limbs

    def test_mb_to_bytes_whole_values(self):
        from repro.perf.cache import mb_to_bytes

        assert mb_to_bytes(32) == 32_000_000
        assert mb_to_bytes(0.5) == 500_000

    def test_paper_quotes_are_within_five_percent_of_limb_counts(self):
        # 6 MB ~ 2*dnum = 6 limbs, 27 MB ~ alpha+3 = 15... the quoted
        # sizes are shorthand: assert the thresholds the quotes stand for.
        assert CacheModel.from_mb(6.5).capacity_limbs(BASELINE_JUNG) >= (
            2 * BASELINE_JUNG.dnum
        )
        assert CacheModel.from_mb(32).capacity_limbs(BASELINE_JUNG) >= (
            BASELINE_JUNG.alpha + 3
        )
