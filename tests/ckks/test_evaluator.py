from contextlib import nullcontext

import numpy as np
import pytest

from repro import kernels
from repro.params.presets import toy_params
from repro.ring import Representation, RnsPolynomial
from repro.ckks import (
    Ciphertext,
    CkksContext,
    Decryptor,
    Encoder,
    Encryptor,
    Evaluator,
    KeyGenerator,
    SwitchingKey,
)
from repro.ckks.evaluator import _SCALE_RTOL, _integer_parts


@pytest.fixture()
def z1(rng):
    return rng.normal(size=8) + 1j * rng.normal(size=8)


@pytest.fixture()
def z2(rng):
    return rng.normal(size=8) + 1j * rng.normal(size=8)


def _err(decryptor, ct, want):
    return np.max(np.abs(decryptor.decrypt_values(ct) - want))


class TestAdditive:
    def test_add(self, encryptor, decryptor, evaluator, z1, z2):
        ct = evaluator.add(
            encryptor.encrypt_values(z1), encryptor.encrypt_values(z2)
        )
        assert _err(decryptor, ct, z1 + z2) < 1e-4

    def test_sub(self, encryptor, decryptor, evaluator, z1, z2):
        ct = evaluator.sub(
            encryptor.encrypt_values(z1), encryptor.encrypt_values(z2)
        )
        assert _err(decryptor, ct, z1 - z2) < 1e-4

    def test_negate(self, encryptor, decryptor, evaluator, z1):
        ct = evaluator.negate(encryptor.encrypt_values(z1))
        assert _err(decryptor, ct, -z1) < 1e-4

    def test_pt_add(self, encryptor, decryptor, evaluator, z1, z2):
        ct = evaluator.pt_add(encryptor.encrypt_values(z1), list(z2))
        assert _err(decryptor, ct, z1 + z2) < 1e-4

    def test_pt_add_leaves_c1_untouched(self, encryptor, evaluator, z1, z2):
        ct = encryptor.encrypt_values(z1)
        out = evaluator.pt_add(ct, list(z2))
        assert out.c1 == ct.c1

    def test_add_mixed_levels_aligns(self, encryptor, decryptor, evaluator, z1, z2):
        ct1 = encryptor.encrypt_values(z1, limbs=5)
        ct2 = encryptor.encrypt_values(z2, limbs=3)
        out = evaluator.add(ct1, ct2)
        assert out.num_limbs == 3
        assert _err(decryptor, out, z1 + z2) < 1e-4

    def test_add_scale_mismatch_rejected(self, encryptor, evaluator, z1):
        ct1 = encryptor.encrypt_values(z1)
        ct2 = encryptor.encrypt_values(z1, scale=2.0**20)
        with pytest.raises(ValueError):
            evaluator.add(ct1, ct2)


class TestMultiplicative:
    def test_pt_mult(self, encryptor, decryptor, evaluator, z1, z2):
        ct = evaluator.pt_mult(encryptor.encrypt_values(z1), list(z2))
        assert _err(decryptor, ct, z1 * z2) < 1e-3

    def test_pt_mult_consumes_level(self, encryptor, evaluator, z1, z2):
        ct = encryptor.encrypt_values(z1)
        out = evaluator.pt_mult(ct, list(z2))
        assert out.num_limbs == ct.num_limbs - 1

    def test_pt_mult_no_rescale(self, encryptor, decryptor, evaluator, z1, z2):
        ct = encryptor.encrypt_values(z1)
        out = evaluator.pt_mult(ct, list(z2), rescale=False)
        assert out.num_limbs == ct.num_limbs
        assert out.scale == pytest.approx(ct.scale * evaluator.context.scale)
        assert _err(decryptor, out, z1 * z2) < 1e-3

    def test_mult(self, encryptor, decryptor, evaluator, z1, z2):
        ct = evaluator.mult(
            encryptor.encrypt_values(z1), encryptor.encrypt_values(z2)
        )
        assert _err(decryptor, ct, z1 * z2) < 1e-3

    def test_mult_merged_mod_down_matches(self, encryptor, decryptor, evaluator, z1, z2):
        ct1 = encryptor.encrypt_values(z1)
        ct2 = encryptor.encrypt_values(z2)
        standard = evaluator.mult(ct1, ct2)
        merged = evaluator.mult(ct1, ct2, merged_mod_down=True)
        assert merged.num_limbs == standard.num_limbs
        assert merged.scale == pytest.approx(standard.scale)
        assert _err(decryptor, merged, z1 * z2) < 1e-3

    def test_mult_without_rescale_keeps_level(self, encryptor, evaluator, z1, z2):
        out = evaluator.mult(
            encryptor.encrypt_values(z1),
            encryptor.encrypt_values(z2),
            rescale=False,
        )
        assert out.num_limbs == evaluator.context.max_limbs

    def test_merged_requires_rescale(self, encryptor, evaluator, z1, z2):
        with pytest.raises(ValueError):
            evaluator.mult(
                encryptor.encrypt_values(z1),
                encryptor.encrypt_values(z2),
                rescale=False,
                merged_mod_down=True,
            )

    def test_mult_requires_relin_key(self, ctx, encryptor, z1, z2):
        from repro.ckks import Evaluator

        bare = Evaluator(ctx)
        with pytest.raises(ValueError):
            bare.mult(
                encryptor.encrypt_values(z1), encryptor.encrypt_values(z2)
            )

    def test_depth_two_circuit(self, encryptor, decryptor, evaluator, z1, z2):
        ct1 = encryptor.encrypt_values(z1)
        ct2 = encryptor.encrypt_values(z2)
        # (z1 * z2) * z1
        out = evaluator.mult(evaluator.mult(ct1, ct2), ct1)
        assert _err(decryptor, out, z1 * z2 * z1) < 5e-3


class TestRescaleAndLevels:
    def test_rescale_drops_limb_and_scale(self, encryptor, evaluator, z1):
        ct = encryptor.encrypt_values(z1)
        ct = evaluator.pt_mult(ct, [1.0] * 8, rescale=False)
        out = evaluator.rescale(ct)
        assert out.num_limbs == ct.num_limbs - 1
        dropped = ct.basis.moduli[-1]
        assert out.scale == pytest.approx(ct.scale / dropped)

    def test_reduce_level(self, encryptor, decryptor, evaluator, z1):
        ct = encryptor.encrypt_values(z1)
        out = evaluator.reduce_level(ct, 2)
        assert out.num_limbs == 2
        assert _err(decryptor, out, z1) < 1e-4

    def test_reduce_level_validates(self, encryptor, evaluator, z1):
        ct = encryptor.encrypt_values(z1, limbs=3)
        with pytest.raises(ValueError):
            evaluator.reduce_level(ct, 4)
        with pytest.raises(ValueError):
            evaluator.reduce_level(ct, 0)

    def test_pt_mult_at_lands_on_target_scale(
        self, encryptor, decryptor, evaluator, z1, z2
    ):
        ct = encryptor.encrypt_values(z1)
        # A target no rescale prime would naturally produce.
        target = ct.scale * 1.07
        out = evaluator.pt_mult_at(ct, list(z2), target)
        assert out.scale == target
        assert out.num_limbs == ct.num_limbs - 1
        assert _err(decryptor, out, z1 * z2) < 1e-4

    def test_pt_mult_at_requires_spare_level(self, encryptor, evaluator, z1):
        ct = encryptor.encrypt_values(z1, limbs=1)
        with pytest.raises(ValueError):
            evaluator.pt_mult_at(ct, [1.0] * 8, ct.scale)

    def test_match_scale_repairs_drifted_addition(
        self, encryptor, decryptor, evaluator, z1, z2
    ):
        ct1 = encryptor.encrypt_values(z1)
        # Drift ct2's scale well past the tolerance: the raw add must
        # reject the pair, the matched add must decrypt correctly.
        drifted = Ciphertext(ct1.c0, ct1.c1, ct1.scale * 1.2)
        ct2 = encryptor.encrypt_values(z2)
        with pytest.raises(ValueError):
            evaluator.add(ct2, drifted)
        out = evaluator.add(
            ct2, evaluator.match_scale(drifted, ct2.scale)
        )
        # drifted's declared scale overstates the encoding by 1.2x, so
        # its decrypted contribution is z1 / 1.2.
        assert _err(decryptor, out, z2 + z1 / 1.2) < 1e-4

    def test_match_scale_is_noop_within_tolerance(self, encryptor, evaluator, z1):
        ct = encryptor.encrypt_values(z1)
        nearly = ct.scale * (1.0 + _SCALE_RTOL / 2)
        assert evaluator.match_scale(ct, nearly) is ct

    def test_match_scale_tight_rtol_forces_exact_landing(
        self, encryptor, decryptor, evaluator, z1
    ):
        # A drift inside the additive 5% window but outside the caller's
        # tighter budget must spend a level and land exactly on target.
        ct = encryptor.encrypt_values(z1)
        target = ct.scale * 1.01
        out = evaluator.match_scale(ct, target, rtol=1e-9)
        assert out is not ct
        assert out.scale == target
        assert out.num_limbs == ct.num_limbs - 1
        assert _err(decryptor, out, z1) < 1e-2


#: Real constants up to 4 in magnitude, negative and zero included, and
#: two imaginary ones (CoeffToSlot's -0.5j among them).
CONSTANTS = [-4.0, -1.5, -1e-3, 0.0, 0.37, 1.0, np.pi, 4.0, -0.5j, 2.0j]


def _same(ct1, ct2):
    return ct1.scale == ct2.scale and ct1.c0 == ct2.c0 and ct1.c1 == ct2.c1


class TestConstants:
    """A number is the sparse polynomial that encoding it in every slot
    gives, at no encode and no NTT."""

    @pytest.mark.parametrize("degree", [16, 2048])
    def test_integer_parts_are_the_encoded_coefficients(self, degree):
        # Up to 2**50 the encoded constant vector carries no FFT noise;
        # above it the other coefficients start to round to +-1.
        encoder = Encoder(degree, 2.0**30)
        rng = np.random.default_rng(degree)
        for _ in range(200):
            value = float(rng.uniform(-4, 4)) * (1j if rng.integers(2) else 1)
            scale = 2.0 ** float(rng.uniform(20, 50))
            re, im = _integer_parts(value, scale)
            want = [0] * degree
            want[0], want[degree // 2] = re, im
            assert encoder.encode([value] * (degree // 2), scale) == want

    @pytest.mark.parametrize("limbs", [6, 3, 2], ids=["top", "middle", "two"])
    @pytest.mark.parametrize("log_scale", [20, 35, 50])
    def test_number_equals_encoded_vector(
        self, encryptor, evaluator, z1, limbs, log_scale
    ):
        ct = encryptor.encrypt_values(z1, limbs=limbs)
        n = len(z1)
        # pt_mult_at encodes at target * q / ct.scale: pick the target
        # that makes that 2**log_scale.
        target = 2.0**log_scale * ct.scale / ct.basis.moduli[-1]
        at_scale = Ciphertext(ct.c0, ct.c1, 2.0**log_scale)
        for value in CONSTANTS:
            assert _same(
                evaluator.pt_mult_at(ct, value, target),
                evaluator.pt_mult_at(ct, [value] * n, target),
            ), value
            assert _same(
                evaluator.pt_add(at_scale, value),
                evaluator.pt_add(at_scale, [value] * n),
            ), value
            assert _same(
                evaluator.pt_mult(ct, value, rescale=False),
                evaluator.pt_mult(ct, [value] * n, rescale=False),
            ), value

    def test_number_decrypts_like_the_vector(
        self, encryptor, decryptor, evaluator, z1
    ):
        ct = encryptor.encrypt_values(z1)
        for value in (0.75, -2.5j, 1.5 - 0.25j):
            assert _err(decryptor, evaluator.pt_mult(ct, value), value * z1) < 1e-4
            assert _err(decryptor, evaluator.pt_add(ct, value), value + z1) < 1e-4

    @pytest.mark.parametrize("value", [np.nan, np.inf, complex(1.0, np.nan)])
    def test_non_finite_number_rejected(self, encryptor, evaluator, z1, value):
        ct = encryptor.encrypt_values(z1)
        for call in (
            lambda: evaluator.pt_mult(ct, value),
            lambda: evaluator.pt_add(ct, value),
            lambda: evaluator.pt_mult_at(ct, value, ct.scale),
        ):
            with pytest.raises(ValueError, match="finite"):
                call()

    def test_constants_never_encode(self, encryptor, evaluator, z1, monkeypatch):
        ct = encryptor.encrypt_values(z1)

        def refuse(*args, **kwargs):
            raise AssertionError("a constant was encoded")

        monkeypatch.setattr(evaluator.context.encoder, "encode", refuse)
        evaluator.pt_mult(ct, -0.5j)
        evaluator.pt_add(ct, 3.0)
        evaluator.pt_mult_at(ct, 2.0, ct.scale * 1.01)
        evaluator.match_scale(ct, ct.scale * 1.01, rtol=1e-9)

    def test_match_scale_lands_exactly_as_before(self, encryptor, evaluator, z1):
        ct = encryptor.encrypt_values(z1)
        target = ct.scale * 1.01
        out = evaluator.match_scale(ct, target, rtol=1e-9)
        assert out.scale == target
        assert _same(out, evaluator.pt_mult_at(ct, [1.0] * len(z1), target))

    def test_mult_by_i_shifts_the_plaintext_negacyclically(
        self, ctx, encryptor, decryptor, evaluator, z1
    ):
        ct = encryptor.encrypt_values(z1)
        turned = evaluator.mult_by_i(ct)
        assert turned.scale == ct.scale and turned.num_limbs == ct.num_limbs
        coeffs = decryptor.decrypt(ct).coeffs
        half = ctx.degree // 2
        assert decryptor.decrypt(turned).coeffs == [
            -c for c in coeffs[half:]
        ] + coeffs[:half]
        assert _err(decryptor, turned, 1j * z1) < 1e-4
        with kernels.oracle_only():
            assert _same(evaluator.mult_by_i(ct), turned)

    def test_constant_sum_lands_on_target_a_level_below_the_shallowest(
        self, encryptor, decryptor, evaluator, z1, z2
    ):
        deep = evaluator.pt_mult(encryptor.encrypt_values(z1), 1.0)
        top = encryptor.encrypt_values(z2)
        target = top.scale * 1.03
        out = evaluator.constant_sum_at(
            [(top, 0.5), (deep, -2.0 + 1.0j), (top, 0.25j)], target
        )
        assert out.scale == target
        assert out.num_limbs == deep.num_limbs - 1
        want = 0.5 * z2 + (-2.0 + 1.0j) * z1 + 0.25j * z2
        assert _err(decryptor, out, want) < 1e-3

    def test_constant_sum_needs_a_spare_level(self, encryptor, evaluator, z1):
        ct = encryptor.encrypt_values(z1, limbs=1)
        with pytest.raises(ValueError, match="spare level"):
            evaluator.constant_sum_at([(ct, 1.0)], ct.scale)


class TestKeySwitchNoiseHeadroom:
    @staticmethod
    def _rotation_error(log_special):
        from repro.ckks import CkksContext, Decryptor, Encryptor, KeyGenerator
        from repro.ckks.evaluator import Evaluator
        from repro.params import toy_params

        params = toy_params(
            log_n=6, log_q=29, max_limbs=12, dnum=3, log_special=log_special
        )
        ctx = CkksContext(params, scale_bits=29, seed=7)
        kg = KeyGenerator(ctx, hamming_weight=4)
        enc = Encryptor(ctx, secret_key=kg.secret_key)
        dec = Decryptor(ctx, kg.secret_key)
        ev = Evaluator(ctx, rotation_keys={1: kg.rotation_key(1)})
        rng = np.random.default_rng(3)
        n = ctx.slots
        z = rng.uniform(-1, 1, n) + 1j * rng.uniform(-1, 1, n)
        ct = enc.encrypt_values(z, scale=ctx.scale, limbs=params.max_limbs)
        got = dec.decrypt_values(ev.rotate(ct, 1))
        return np.max(np.abs(np.asarray(got) - np.roll(z, -1)))

    def test_wider_special_primes_shave_key_switch_noise(self):
        # With special primes the same width as the limbs, P is barely as
        # large as the biggest digit, so the approximate-ModUp overflow
        # (up to alpha * B * e) survives ModDown almost undamped.  One
        # extra bit per special prime gives P an alpha-bit margin over B
        # and the digit noise collapses; deep big-ring circuits (the
        # N=2^14 bootstrap) depend on this headroom.
        baseline = self._rotation_error(None)
        headroom = self._rotation_error(30)
        assert headroom < baseline / 3
    @pytest.mark.parametrize("steps", [1, 2, 3, 7])
    def test_rotate(self, encryptor, decryptor, evaluator, z1, steps):
        ct = evaluator.rotate(encryptor.encrypt_values(z1), steps)
        assert _err(decryptor, ct, np.roll(z1, -steps)) < 1e-3

    def test_rotate_zero_is_identity(self, encryptor, evaluator, z1):
        ct = encryptor.encrypt_values(z1)
        assert evaluator.rotate(ct, 0) is ct

    def test_rotate_full_cycle(self, encryptor, evaluator, z1):
        ct = encryptor.encrypt_values(z1)
        assert evaluator.rotate(ct, 8) is ct

    def test_missing_key_raises(self, ctx, encryptor, z1):
        from repro.ckks import Evaluator

        bare = Evaluator(ctx)
        with pytest.raises(ValueError):
            bare.rotate(encryptor.encrypt_values(z1), 1)

    def test_conjugate(self, encryptor, decryptor, evaluator, z1):
        ct = evaluator.conjugate(encryptor.encrypt_values(z1))
        assert _err(decryptor, ct, np.conj(z1)) < 1e-3

    def test_double_conjugate_is_identity(self, encryptor, decryptor, evaluator, z1):
        ct = evaluator.conjugate(
            evaluator.conjugate(encryptor.encrypt_values(z1))
        )
        assert _err(decryptor, ct, z1) < 1e-3

    def test_rotate_composes(self, encryptor, decryptor, evaluator, z1):
        ct = encryptor.encrypt_values(z1)
        composed = evaluator.rotate(evaluator.rotate(ct, 1), 2)
        assert _err(decryptor, composed, np.roll(z1, -3)) < 1e-3

    def test_rotate_at_low_level(self, encryptor, decryptor, evaluator, z1):
        ct = encryptor.encrypt_values(z1, limbs=2)
        out = evaluator.rotate(ct, 1)
        assert out.num_limbs == 2
        assert _err(decryptor, out, np.roll(z1, -1)) < 1e-3


class TestHoistedRotations:
    def test_matches_individual_rotations(self, encryptor, decryptor, evaluator, z1):
        ct = encryptor.encrypt_values(z1)
        hoisted = evaluator.rotations_hoisted(ct, [1, 2, 3])
        for steps, rotated in hoisted.items():
            assert _err(decryptor, rotated, np.roll(z1, -steps)) < 1e-3

    def test_includes_identity(self, encryptor, evaluator, z1):
        ct = encryptor.encrypt_values(z1)
        hoisted = evaluator.rotations_hoisted(ct, [0, 1])
        assert hoisted[0] is ct

    def test_missing_key_raises(self, encryptor, evaluator, z1):
        ct = encryptor.encrypt_values(z1)
        evaluator_keys = dict(evaluator.rotation_keys)
        try:
            del evaluator.rotation_keys[3]
            with pytest.raises(ValueError):
                evaluator.rotations_hoisted(ct, [3])
        finally:
            evaluator.rotation_keys = evaluator_keys


class TestKeySwitchInternals:
    def test_decompose_digit_count(self, ctx, encryptor, evaluator, z1):
        ct = encryptor.encrypt_values(z1)
        digits = evaluator.decompose(ct.c1)
        import math

        assert len(digits) == math.ceil(ct.num_limbs / ctx.params.alpha)

    def test_decompose_preserves_rows(self, encryptor, evaluator, z1):
        ct = encryptor.encrypt_values(z1)
        digits = evaluator.decompose(ct.c1)
        reassembled = np.concatenate([digit.limbs for digit in digits])
        assert np.array_equal(reassembled, ct.c1.limbs)

    def test_row_selections_own_their_rows(self, encryptor, evaluator, z1):
        ct = encryptor.encrypt_values(z1)
        before = ct.c1.limbs.copy()
        evaluator.decompose(ct.c1)[0].limbs[...] = 0
        evaluator.reduce_level(ct, 2).c1.limbs[...] = 0
        assert np.array_equal(ct.c1.limbs, before)

    def test_raised_digits_live_over_raised_basis(self, ctx, encryptor, evaluator, z1):
        ct = encryptor.encrypt_values(z1, limbs=4)
        raised = evaluator.raise_digits(ct.c1)
        target = ctx.raised_basis(4)
        for digit in raised:
            assert digit.basis == target

    def test_key_switch_decrypts_to_product(self, ctx, keygen, encryptor, evaluator, z1):
        # key_switch(c1, rlk) should produce an encryption of c1 * s^2.
        ct = encryptor.encrypt_values(z1)
        u, v = evaluator.key_switch(ct.c1, evaluator.relin_key)
        basis = ct.basis
        s = keygen.secret_key.poly(basis)
        lhs = (u + v * s).to_int_coeffs()
        rhs = (ct.c1 * s * s).to_int_coeffs()
        scale = max(abs(x) for x in rhs) or 1
        worst = max(abs(a - b) for a, b in zip(lhs, rhs))
        assert worst / scale < 1e-5


@pytest.fixture()
def fast_kernels():
    """The kernels on, whatever ``REPRO_KERNELS`` says, so the lazy path runs."""
    previous = kernels.set_enabled(True)
    yield
    kernels.set_enabled(previous)


def _uniform_digits(context, limbs, count, seed):
    basis = context.raised_basis(limbs)
    return [
        RnsPolynomial(
            basis,
            context.sample_uniform_rows(basis, seed=seed + i),
            Representation.EVAL,
        )
        for i in range(count)
    ]


@pytest.mark.usefixtures("fast_kernels")
class TestInnerProductDifferential:
    """The lazily-reduced inner product equals its ``oracle_only()``
    reference (the per-digit ring expression) bit for bit."""

    @staticmethod
    def _both(evaluator, digits, key, limbs):
        fast = evaluator.ksk_inner_product(digits, key, limbs)
        with kernels.oracle_only():
            reference = evaluator.ksk_inner_product(digits, key, limbs)
        return fast, reference

    @pytest.mark.parametrize(
        "params",
        [
            toy_params(log_n=4, log_q=30, max_limbs=6, dnum=3),
            toy_params(log_n=4, max_limbs=4, dnum=2),  # object-dtype limbs
        ],
        ids=["int64", "object"],
    )
    @pytest.mark.parametrize("compress", [True, False])
    def test_matches_reference_at_every_level(self, params, compress):
        context = CkksContext(params, seed=5)
        key = KeyGenerator(context, compress_keys=compress).relinearization_key()
        evaluator = Evaluator(context)
        for limbs in range(1, context.max_limbs + 1):
            count = len(context.digit_index_ranges(limbs))
            digits = _uniform_digits(context, limbs, count, seed=100 * limbs)
            fast, reference = self._both(evaluator, digits, key, limbs)
            for got, want in zip(fast, reference):
                assert got == want
                assert got.limbs.dtype == context.raised_basis(limbs).dtype

    def test_seventeen_digits_of_q_minus_one(self):
        # alpha = 1: one digit per limb, so the top level sums 17 products
        # of (q - 1)**2 ~ 2**60 per residue: 15 pass the int64 range, and
        # 17 overflow uint64 unless the sum is reduced after 15.
        context = CkksContext(
            toy_params(log_n=4, log_q=30, max_limbs=17, dnum=18), seed=5
        )
        assert context.num_digits == 17
        full = context.raised_basis(context.max_limbs)
        assert 17 * (min(full.moduli) - 1) ** 2 >= 2**64
        top = np.broadcast_to(full.q_col - 1, (len(full), context.degree))
        rows = np.stack([top] * context.num_digits).astype(np.uint32)
        key = SwitchingKey(b=rows, a=rows.copy())
        evaluator = Evaluator(context)
        for limbs in range(1, context.max_limbs + 1):
            basis = context.raised_basis(limbs)
            digit = RnsPolynomial(
                basis,
                np.broadcast_to(basis.q_col - 1, (len(basis), context.degree)),
                Representation.EVAL,
            )
            fast, reference = self._both(evaluator, [digit] * limbs, key, limbs)
            for got, want in zip(fast, reference):
                assert got == want
                # (q - 1)**2 = 1 (mod q), once per digit.
                assert (got.limbs == limbs).all()

    @pytest.mark.parametrize("compress", [True, False])
    def test_seventeen_digit_mult_matches_reference(self, compress):
        # A generated 17-digit key through a whole relinearised multiply:
        # the mid-sum reduction runs on real key rows (and, compressed, on
        # re-expanded a rows), the two paths agree bit for bit and the
        # product decrypts.
        context = CkksContext(
            toy_params(log_n=4, log_q=30, max_limbs=17, dnum=18), seed=5
        )
        assert context.num_digits == 17
        kg = KeyGenerator(context, compress_keys=compress)
        evaluator = Evaluator(context, relin_key=kg.relinearization_key())
        encryptor = Encryptor(context, secret_key=kg.secret_key)
        rng = np.random.default_rng(3)
        z1, z2 = rng.normal(size=(2, 8)) + 1j * rng.normal(size=(2, 8))
        ct1, ct2 = encryptor.encrypt_values(z1), encryptor.encrypt_values(z2)
        fast = evaluator.mult(ct1, ct2)
        with kernels.oracle_only():
            reference = evaluator.mult(ct1, ct2)
        assert fast.c0 == reference.c0 and fast.c1 == reference.c1
        decryptor = Decryptor(context, kg.secret_key)
        assert _err(decryptor, fast, z1 * z2) < 1e-3

    @pytest.mark.parametrize("fast", [True, False])
    def test_foreign_digits_rejected(self, ctx, keygen, fast):
        key = keygen.relinearization_key()
        evaluator = Evaluator(ctx)
        limbs = ctx.max_limbs
        count = len(ctx.digit_index_ranges(limbs))
        digits = _uniform_digits(ctx, limbs, count, seed=7)
        with nullcontext() if fast else kernels.oracle_only():
            with pytest.raises(ValueError, match="digits but key has"):
                evaluator.ksk_inner_product(digits + digits[:1], key, limbs)
            # A short list or stream is not a partial product.
            assert count == 2
            for short in (digits[:1], iter(digits[:1]), []):
                with pytest.raises(ValueError, match="[01] digits but key has 2"):
                    evaluator.ksk_inner_product(short, key, limbs)
            lower = _uniform_digits(ctx, limbs - 1, 1, seed=9)
            with pytest.raises(ValueError, match="different bases"):
                evaluator.ksk_inner_product(digits[:1] + lower, key, limbs)
            with pytest.raises(ValueError, match="evaluation form"):
                evaluator.ksk_inner_product([digits[0].to_coeff()], key, limbs)
