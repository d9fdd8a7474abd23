import numpy as np
import pytest

from repro.params.presets import toy_params
from repro.ckks import CkksContext, KeyGenerator, SecretKey, SwitchingKey


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


def _relin_key(context, compress):
    kg = KeyGenerator(context, compress_keys=compress)
    return kg, kg.relinearization_key()


class TestSwitchingKeys:
    def test_digit_count_matches_dnum_grouping(self, ctx, keygen):
        key = keygen.relinearization_key()
        assert key.dnum == ctx.num_digits

    @pytest.mark.parametrize("compress", [True, False])
    def test_keys_live_over_raised_basis(self, ctx, compress):
        _, key = _relin_key(ctx, compress)
        raised = ctx.raised_basis(ctx.max_limbs)
        for b in key.b:
            assert b.basis == raised
        for b, a in key.restricted(ctx.max_limbs, ctx):
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

    @pytest.mark.parametrize("compress", [True, False])
    def test_stored_bytes_equals_held_arrays(self, ctx, compress):
        _, key = _relin_key(ctx, compress)
        assert (key.a is None) == compress
        held = key.b + (key.a or [])
        assert key.stored_bytes() == sum(poly.limbs.nbytes for poly in held)

    def test_stored_bytes_counts_every_residue(self, ctx, keygen):
        key = KeyGenerator(ctx, compress_keys=False).relinearization_key()
        raised = ctx.raised_basis(ctx.max_limbs)
        assert key.stored_bytes() == 2 * key.dnum * len(raised) * ctx.degree * 8

    def test_restriction_selects_live_rows(self, ctx, keygen):
        key = keygen.relinearization_key()
        limbs = 3
        restricted = key.restricted(limbs, ctx)
        raised = ctx.raised_basis(limbs)
        for b, a in restricted:
            assert b.basis == raised
            assert b.num_limbs == limbs + len(ctx.special_moduli)
            assert a.basis == raised

    def test_restriction_returns_the_digits_a_decomposition_uses(self, ctx, keygen):
        key = keygen.relinearization_key()
        alpha = ctx.params.alpha
        for limbs in range(1, ctx.max_limbs + 1):
            assert len(key.restricted(limbs, ctx)) == -(-limbs // alpha)

    @pytest.mark.parametrize(
        "params",
        [
            toy_params(log_n=4, log_q=30, max_limbs=6, dnum=3),
            toy_params(log_n=4, max_limbs=4, dnum=2),  # object-dtype limbs
        ],
        ids=["int64", "object"],
    )
    @pytest.mark.parametrize("compress", [True, False])
    def test_restricted_digits_encrypt_the_source_key(self, params, compress):
        """``b_i + a_i*s - P*U_i*s^2`` is the small keygen error at every
        level and digit; a mis-regenerated ``a_i`` leaves residues ~q/2."""
        context = CkksContext(params, seed=5)
        kg, key = _relin_key(context, compress)
        for limbs in range(1, context.max_limbs + 1):
            basis = context.raised_basis(limbs)
            s = kg.secret_key.poly(basis)
            for i, (b, a) in enumerate(key.restricted(limbs, context)):
                selector = context.p_product * context.digit_selector(i)
                noise = b + a * s - (s * s).scalar_mul(selector)
                coeffs = noise.to_coeff().to_int_coeffs()
                assert max(abs(c) for c in coeffs) <= 40

    @pytest.mark.parametrize("compress", [True, False])
    def test_restriction_owns_its_rows(self, ctx, compress):
        _, key = _relin_key(ctx, compress)
        before = key.restricted(ctx.max_limbs, ctx)
        for b, a in key.restricted(2, ctx):
            b.limbs[...] = 0
            a.limbs[...] = 0
        for (b, a), (b0, a0) in zip(key.restricted(ctx.max_limbs, ctx), before):
            assert b == b0
            assert a == a0

    @pytest.mark.parametrize("compress", [True, False])
    def test_restriction_is_recomputed_not_cached(self, ctx, compress):
        _, key = _relin_key(ctx, compress)
        held = key.stored_bytes()
        first, second = key.restricted(2, ctx), key.restricted(2, ctx)
        for (b1, a1), (b2, a2) in zip(first, second):
            assert b1 == b2 and a1 == a2
            assert not np.shares_memory(b1.limbs, b2.limbs)
            assert not np.shares_memory(a1.limbs, a2.limbs)
        assert key.stored_bytes() == held
        assert (key.a is None) == compress

    def test_malformed_key_rejected(self, keygen):
        b = keygen.relinearization_key().b
        seeds = list(range(len(b)))
        for fields in (
            {},
            {"seeds": seeds, "a": b},
            {"seeds": seeds[1:]},
            {"a": b[1:]},
        ):
            with pytest.raises(ValueError):
                SwitchingKey(b=b, **fields)

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
