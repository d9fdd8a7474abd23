import random

import numpy as np
import pytest

from repro import kernels
from repro.params.presets import toy_params
from repro.ckks import CkksContext, KeyGenerator, SecretKey, SwitchingKey
from repro.ring import Representation, RnsPolynomial


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

    def test_prefix_basis_shares_the_held_form(self, ctx):
        secret = SecretKey(ctx, KeyGenerator(ctx).secret_key.coeffs)
        low = ctx.basis_at(3)
        built = secret.poly(low)
        raised = secret.poly(ctx.raised_basis(ctx.max_limbs))
        # The wider form replaces the held one; a lower level is a view.
        for basis in (low, ctx.basis_at(1), ctx.basis_at(ctx.max_limbs)):
            served = secret.poly(basis)
            assert np.shares_memory(served.limbs, raised.limbs)
            assert not served.limbs.flags.writeable
            assert served is secret.poly(basis)
        assert secret.poly(low) == built

    def test_never_builds_a_wider_form_than_asked(self, ctx, monkeypatch):
        secret = SecretKey(ctx, KeyGenerator(ctx).secret_key.coeffs)
        built = []
        lift = RnsPolynomial.from_int_coeffs

        def spy(coeffs, basis):
            built.append(len(basis))
            return lift(coeffs, basis)

        monkeypatch.setattr(RnsPolynomial, "from_int_coeffs", spy)
        for limbs in (3, 2, 3, 5, 1):
            poly = secret.poly(ctx.basis_at(limbs))
            assert poly.basis == ctx.basis_at(limbs)
        assert built == [3, 5]
        # A raised basis extends no ciphertext basis' form: it is built.
        secret.poly(ctx.raised_basis(2))
        assert built == [3, 5, len(ctx.raised_basis(2))]


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
        for rows in [key.b] if compress else [key.b, key.a]:
            assert rows.shape == (key.dnum, len(raised), ctx.degree)
            assert rows.dtype == np.uint32
        for b, a in key.restricted(ctx.max_limbs, ctx):
            assert b.basis == raised and b.limbs.dtype == np.int64
            assert a.basis == raised and a.limbs.dtype == np.int64

    @pytest.mark.parametrize("compress", [True, False])
    def test_one_pass_keygen_matches_reference(self, compress):
        """The lazily-reduced ``b`` rows equal the ``oracle_only()`` ring
        expression's bit for bit, and the generator stream is unchanged."""
        params = toy_params(log_n=4, log_q=30, max_limbs=6, dnum=3)
        fast_ctx, ref_ctx = CkksContext(params, seed=5), CkksContext(params, seed=5)
        previous = kernels.set_enabled(True)
        try:
            fast = _relin_key(fast_ctx, compress)[1]
        finally:
            kernels.set_enabled(previous)
        with kernels.oracle_only():
            reference = _relin_key(ref_ctx, compress)[1]
        assert fast.b.dtype == reference.b.dtype == np.uint32
        assert np.array_equal(fast.b, reference.b)
        assert fast.seeds == reference.seeds
        if not compress:
            assert np.array_equal(fast.a, reference.a)
        assert fast_ctx.rng.getstate() == ref_ctx.rng.getstate()

    @pytest.mark.parametrize("compress", [True, False])
    def test_one_pass_galois_keygen_matches_reference(self, compress):
        """Same for a source that is not ``s**2``: the automorphed secret
        of a rotation key and of the conjugation key."""
        params = toy_params(log_n=4, log_q=30, max_limbs=6, dnum=3)
        fast_ctx, ref_ctx = CkksContext(params, seed=9), CkksContext(params, seed=9)

        def keys(context):
            kg = KeyGenerator(context, compress_keys=compress)
            return [kg.rotation_key(3), kg.conjugation_key()]

        previous = kernels.set_enabled(True)
        try:
            fast = keys(fast_ctx)
        finally:
            kernels.set_enabled(previous)
        with kernels.oracle_only():
            reference = keys(ref_ctx)
        for got, want in zip(fast, reference):
            assert got.b.dtype == want.b.dtype == np.uint32
            assert np.array_equal(got.b, want.b)
            assert got.seeds == want.seeds
            if not compress:
                assert np.array_equal(got.a, want.a)
        assert not np.array_equal(fast[0].b, fast[1].b)
        assert fast_ctx.rng.getstate() == ref_ctx.rng.getstate()

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
        held = [key.b] if compress else [key.b, key.a]
        assert key.stored_bytes() == sum(rows.nbytes for rows in held)

    @pytest.mark.parametrize(
        "params, dtype, word",
        [
            (toy_params(log_n=4, log_q=30, max_limbs=6, dnum=3), np.uint32, 4),
            # object-dtype limbs: one pointer per residue, as before.
            (toy_params(log_n=4, max_limbs=4, dnum=2), object, 8),
        ],
        ids=["int64", "object"],
    )
    def test_stored_bytes_counts_every_residue(self, params, dtype, word):
        context = CkksContext(params, seed=5)
        key = KeyGenerator(context, compress_keys=False).relinearization_key()
        raised = context.raised_basis(context.max_limbs)
        assert key.b.dtype == key.a.dtype == dtype
        assert key.stored_bytes() == (
            2 * key.dnum * len(raised) * context.degree * word
        )

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


@pytest.fixture()
def fast_kernels():
    """The kernels on, whatever ``REPRO_KERNELS`` says, so the replay runs."""
    previous = kernels.set_enabled(True)
    yield
    kernels.set_enabled(previous)


def _compressed_key(context):
    return KeyGenerator(context).relinearization_key()


@pytest.mark.usefixtures("fast_kernels")
class TestRowEnds:
    """A compressed key records where each row of a digit's seeded stream
    ends, and re-expands only the live rows from those ends."""

    PARAMS = toy_params(log_n=4, log_q=30, max_limbs=6, dnum=3)

    def test_compressed_key_records_increasing_ends(self):
        context = CkksContext(self.PARAMS, seed=5)
        key = _compressed_key(context)
        full = context.raised_basis(context.max_limbs)
        assert key.row_ends.shape == (key.dnum, len(full))
        assert key.row_ends.dtype == np.int64
        assert (key.row_ends[:, 0] >= context.degree).all()
        assert (np.diff(key.row_ends, axis=1) >= context.degree).all()

    def test_ends_only_where_the_kernels_drew_the_rows(self):
        assert _relin_key(CkksContext(self.PARAMS, seed=5), False)[1].row_ends is None
        # object-dtype limbs: the comprehension draws the rows.
        wide = CkksContext(toy_params(log_n=4, max_limbs=4, dnum=2), seed=5)
        assert _compressed_key(wide).row_ends is None
        with kernels.oracle_only():
            assert _compressed_key(CkksContext(self.PARAMS, seed=5)).row_ends is None

    @pytest.mark.parametrize(
        "params",
        [
            PARAMS,
            toy_params(log_n=11, log_q=29, max_limbs=5, dnum=2, log_special=30),
        ],
        ids=["N16", "N2048"],
    )
    def test_live_rows_equal_the_comprehension_at_every_level(self, params):
        context = CkksContext(params, seed=7)
        key = _compressed_key(context)
        full = context.raised_basis(context.max_limbs)
        expected = [
            [[rng.randrange(q) for _ in range(context.degree)] for q in full]
            for rng in (random.Random(seed) for seed in key.seeds)
        ]
        for limbs in range(1, context.max_limbs + 1):
            live = list(range(limbs)) + list(range(context.max_limbs, len(full)))
            for digit, (_, a) in enumerate(key.restricted(limbs, context)):
                assert a.limbs.tolist() == [expected[digit][i] for i in live]

    def test_key_without_ends_expands_the_same_rows(self):
        context = CkksContext(self.PARAMS, seed=5)
        key = _compressed_key(context)
        bare = SwitchingKey(b=key.b, seeds=key.seeds)
        for limbs in range(1, context.max_limbs + 1):
            for (b1, a1), (b2, a2) in zip(
                key.restricted(limbs, context), bare.restricted(limbs, context)
            ):
                assert b1 == b2 and a1 == a2

    @pytest.mark.parametrize("compress", [True, False])
    def test_inner_product_equals_restricted_reference_at_every_level(self, compress):
        context = CkksContext(self.PARAMS, seed=5)
        key = _relin_key(context, compress)[1]
        for limbs in range(1, context.max_limbs + 1):
            basis = context.raised_basis(limbs)
            digits = [
                RnsPolynomial(
                    basis,
                    context.sample_uniform_rows(basis, seed=50 * limbs + i),
                    Representation.EVAL,
                )
                for i in range(len(context.digit_index_ranges(limbs)))
            ]
            fast = key.inner_product(digits, limbs, context)
            with kernels.oracle_only():
                pairs = key.restricted(limbs, context)
            want_b = want_a = RnsPolynomial.zero(basis)
            for digit, (b, a) in zip(digits, pairs):
                want_b = want_b + digit * b
                want_a = want_a + digit * a
            assert fast[0] == want_b and fast[1] == want_a

    def test_malformed_row_ends_rejected(self):
        key = _compressed_key(CkksContext(self.PARAMS, seed=5))
        with pytest.raises(ValueError, match="row ends"):
            SwitchingKey(b=key.b, seeds=key.seeds, row_ends=key.row_ends[:, 1:])
        with pytest.raises(ValueError, match="row ends"):
            SwitchingKey(b=key.b, a=key.b, row_ends=key.row_ends)


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
