import numpy as np
import pytest

from repro.ckks.encoding import Encoder
from repro.ckks.specialfft import SpecialFft, leaf_permutation
from repro.ckks.linear import matrix_diagonals


@pytest.fixture(scope="module", params=[8, 16, 32])
def fft(request):
    return SpecialFft(Encoder(request.param, 2.0**20))


class TestLeafPermutation:
    def test_degree_eight(self):
        # N=8: split [0..7] -> evens [0,2,4,6] -> [0,4],[2,6]; odds -> ...
        assert leaf_permutation(4) == [0, 2, 1, 3]

    def test_is_half_length(self):
        assert len(leaf_permutation(8)) == 8

    def test_pairs_cover_all_coefficients(self, fft):
        n = fft.slots
        covered = set(fft.sigma) | {s + n for s in fft.sigma}
        assert covered == set(range(2 * n))


class TestFactorization:
    def test_staged_product_matches_encoder(self, fft):
        rng = np.random.default_rng(fft.slots)
        c = rng.normal(size=2 * fft.slots)
        state = fft.leaf_state(c)
        for matrix in fft.level_matrices:
            state = matrix @ state
        want = fft.encoder.project(c)
        assert np.max(np.abs(state - want)) < 1e-10

    def test_full_products_are_inverses(self, fft):
        identity = fft.coeff_to_slot_full() @ fft.slot_to_coeff_full()
        assert np.max(np.abs(identity - np.eye(fft.slots))) < 1e-10

    def test_leaf_state_round_trip(self, fft):
        rng = np.random.default_rng(1)
        c = rng.normal(size=2 * fft.slots)
        assert np.allclose(fft.unpack_leaf_state(fft.leaf_state(c)), c)

    def test_level_count(self, fft):
        import math

        assert len(fft.level_matrices) == int(math.log2(fft.slots))


class TestDiagonalSparsity:
    def test_each_level_has_three_diagonals(self, fft):
        for t, matrix in enumerate(fft.level_matrices):
            diagonals = matrix_diagonals(matrix)
            n = fft.slots
            assert set(diagonals) <= {0, 2**t % n, (n - 2**t) % n}
            assert 0 in diagonals

    def test_grouping_reduces_stage_count(self, fft):
        if fft.levels < 2:
            pytest.skip("too few levels to group")
        stages = fft.grouped_stages(2)
        assert len(stages) == 2
        # Each stage is sparser than the dense full transform.
        full_diagonals = len(matrix_diagonals(fft.slot_to_coeff_full()))
        for stage in stages:
            assert len(matrix_diagonals(stage)) <= full_diagonals

    def test_single_group_equals_full(self, fft):
        (stage,) = fft.grouped_stages(1)
        assert np.allclose(stage, fft.slot_to_coeff_full())

    def test_inverse_stages_compose_to_inverse(self, fft):
        if fft.levels < 2:
            pytest.skip("too few levels to group")
        stages = fft.grouped_stages(2, inverse=True)
        product = np.eye(fft.slots, dtype=np.complex128)
        for stage in stages:
            product = stage @ product
        assert np.max(np.abs(product - fft.coeff_to_slot_full())) < 1e-10

    def test_bad_fft_iter_rejected(self, fft):
        with pytest.raises(ValueError):
            fft.grouped_stages(0)
        with pytest.raises(ValueError):
            fft.grouped_stages(fft.levels + 1)


class TestFactoredBootstrap:
    @pytest.fixture(scope="class")
    def env(self):
        from repro.params import toy_params
        from repro.ckks import (
            Bootstrapper,
            CkksContext,
            Decryptor,
            Encryptor,
            KeyGenerator,
        )

        params = toy_params(log_n=4, log_q=29, max_limbs=16, dnum=4)
        ctx = CkksContext(params, scale_bits=29, seed=5)
        kg = KeyGenerator(ctx, hamming_weight=4)
        return {
            "ctx": ctx,
            "kg": kg,
            "enc": Encryptor(ctx, secret_key=kg.secret_key),
            "dec": Decryptor(ctx, kg.secret_key),
        }

    @pytest.mark.parametrize("fft_iter", [1, 2, 3])
    def test_bootstrap_with_staged_dft(self, env, fft_iter):
        from repro.ckks import Bootstrapper

        bs = Bootstrapper(env["ctx"], env["kg"], mod_degree=63, fft_iter=fft_iter)
        z = np.array([0.3, -0.25, 0.1, 0.05, -0.15, 0.2, 0.0, -0.3])
        ct = env["enc"].encrypt_values(z, scale=2.0**23, limbs=1)
        out = bs.bootstrap(ct)
        assert np.max(np.abs(env["dec"].decrypt_values(out) - z)) < 2e-2

    def test_more_iterations_consume_more_levels(self):
        """Matches the performance model: each extra DFT stage costs one
        level in each direction.  Built without ``fft_iter``, the
        bootstrapper takes the stage count the model prices,
        ``params.fft_iter``."""
        from repro.params import toy_params
        from repro.ckks import Bootstrapper, CkksContext, Encryptor, KeyGenerator

        z = np.array([0.2, -0.1, 0.0, 0.1, -0.2, 0.15, 0.05, -0.05])
        levels = {}
        for fft_iter in (1, 2, 3):
            params = toy_params(
                log_n=4, log_q=29, max_limbs=16, dnum=4, fft_iter=fft_iter
            )
            ctx = CkksContext(params, scale_bits=29, seed=5)
            kg = KeyGenerator(ctx, hamming_weight=4)
            bs = Bootstrapper(ctx, kg, mod_degree=63)
            assert bs.fft_iter == fft_iter
            assert len(bs.c2s_stages) == len(bs.s2c_stages) == fft_iter
            enc = Encryptor(ctx, secret_key=kg.secret_key)
            ct = enc.encrypt_values(z, scale=2.0**23, limbs=1)
            levels[fft_iter] = bs.bootstrap(ct).num_limbs
        assert levels[1] == levels[2] + 2 == levels[3] + 4
