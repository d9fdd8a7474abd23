import numpy as np
import pytest

from repro.params.presets import toy_params
from repro.ckks import CkksContext, KeyGenerator, SecretKey


class TestSecretKey:
    def test_dense_ternary(self, ctx, keygen):
        assert all(c in (-1, 0, 1) for c in keygen.secret_key.coeffs)

    def test_sparse_secret_weight(self):
        context = CkksContext(toy_params(), seed=7)
        kg = KeyGenerator(context, hamming_weight=4)
        assert sum(1 for c in kg.secret_key.coeffs if c) == 4

    def test_sparse_weight_bounds_checked(self):
        context = CkksContext(toy_params(), seed=7)
        with pytest.raises(ValueError):
            KeyGenerator(context, hamming_weight=0)
        with pytest.raises(ValueError):
            KeyGenerator(context, hamming_weight=context.degree + 1)

    def test_rejects_non_ternary(self, ctx):
        with pytest.raises(ValueError):
            SecretKey(ctx, [2] * ctx.degree)

    def test_rejects_wrong_length(self, ctx):
        with pytest.raises(ValueError):
            SecretKey(ctx, [0, 1])

    def test_poly_cache_returns_same_object(self, keygen, ctx):
        basis = ctx.basis_at(3)
        assert keygen.secret_key.poly(basis) is keygen.secret_key.poly(basis)


class TestSwitchingKeys:
    def test_digit_count_matches_dnum_grouping(self, ctx, keygen):
        key = keygen.relinearization_key()
        assert key.dnum == ctx.num_digits

    def test_keys_live_over_raised_basis(self, ctx, keygen):
        key = keygen.relinearization_key()
        raised = ctx.raised_basis(ctx.max_limbs)
        for b, a in key.digits:
            assert b.basis == raised
            assert a.basis == raised

    def test_compression_flag(self, ctx):
        kg_compressed = KeyGenerator(ctx, compress_keys=True)
        kg_full = KeyGenerator(ctx, compress_keys=False)
        assert kg_compressed.relinearization_key().is_compressed
        assert not kg_full.relinearization_key().is_compressed

    def test_compression_halves_stored_bytes(self, ctx):
        compressed = KeyGenerator(ctx, compress_keys=True).relinearization_key()
        full = KeyGenerator(ctx, compress_keys=False).relinearization_key()
        assert 2 * compressed.stored_bytes() == full.stored_bytes()

    def test_restriction_selects_live_rows(self, ctx, keygen):
        key = keygen.relinearization_key()
        limbs = 3
        restricted = key.restricted(limbs, ctx)
        raised = ctx.raised_basis(limbs)
        for b, a in restricted:
            assert b.basis == raised
            assert b.num_limbs == limbs + len(ctx.special_moduli)

    def test_restriction_owns_its_rows(self, ctx, keygen):
        key = keygen.relinearization_key()
        before = [(b.limbs.copy(), a.limbs.copy()) for b, a in key.digits]
        for b, a in key.restricted(2, ctx):
            b.limbs[...] = 0
            a.limbs[...] = 0
        for (b, a), (b0, a0) in zip(key.digits, before):
            assert np.array_equal(b.limbs, b0)
            assert np.array_equal(a.limbs, a0)

    def test_stored_bytes_counts_every_residue(self, ctx, keygen):
        key = KeyGenerator(ctx, compress_keys=False).relinearization_key()
        raised = ctx.raised_basis(ctx.max_limbs)
        assert key.stored_bytes() == 2 * key.dnum * len(raised) * ctx.degree * 8

    def test_restriction_cached(self, ctx, keygen):
        key = keygen.relinearization_key()
        assert key.restricted(2, ctx) is key.restricted(2, ctx)

    def test_source_must_be_raised(self, ctx, keygen):
        s_small = keygen.secret_key.poly(ctx.basis_at(2))
        with pytest.raises(ValueError):
            keygen.switching_key(s_small)


class TestDigitSelectors:
    def test_selector_is_indicator(self, ctx):
        for digit in range(ctx.num_digits):
            selector = ctx.digit_selector(digit)
            alpha = ctx.params.alpha
            for j, q in enumerate(ctx.q_basis.moduli):
                expected = 1 if digit * alpha <= j < (digit + 1) * alpha else 0
                assert selector % q == expected

    def test_selector_out_of_range(self, ctx):
        with pytest.raises(ValueError):
            ctx.digit_selector(ctx.num_digits + 5)

    def test_selectors_sum_to_one(self, ctx):
        total = sum(ctx.digit_selector(i) for i in range(ctx.num_digits))
        for q in ctx.q_basis.moduli:
            assert total % q == 1
