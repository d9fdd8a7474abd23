import numpy as np
import pytest

from repro import kernels
from repro.ckks import Ciphertext, Decryptor, Encryptor, Plaintext
from repro.ckks.encrypt import _with_noise
from repro.ring import Representation, RnsPolynomial


class TestSymmetricEncryption:
    def test_round_trip(self, encryptor, decryptor, rng):
        z = rng.normal(size=8) + 1j * rng.normal(size=8)
        ct = encryptor.encrypt_values(z)
        assert np.max(np.abs(decryptor.decrypt_values(ct) - z)) < 1e-4

    def test_encrypt_at_lower_level(self, encryptor, decryptor, rng):
        z = rng.normal(size=8)
        ct = encryptor.encrypt_values(z, limbs=2)
        assert ct.num_limbs == 2
        assert np.max(np.abs(decryptor.decrypt_values(ct) - z)) < 1e-4

    def test_custom_scale(self, encryptor, decryptor, rng):
        z = rng.normal(size=8)
        ct = encryptor.encrypt_values(z, scale=2.0**20)
        assert ct.scale == 2.0**20
        assert np.max(np.abs(decryptor.decrypt_values(ct) - z)) < 1e-3

    def test_fresh_ciphertexts_differ(self, encryptor):
        z = [1.0] * 8
        ct1 = encryptor.encrypt_values(z)
        ct2 = encryptor.encrypt_values(z)
        assert ct1.c1 != ct2.c1  # randomness present

    def test_noise_is_small_but_nonzero(self, encryptor, decryptor):
        z = np.zeros(8)
        ct = encryptor.encrypt_values(z)
        values = decryptor.decrypt_values(ct)
        assert 0 < np.max(np.abs(values)) < 1e-4


class TestPublicKeyEncryption:
    def test_round_trip(self, ctx, keygen, decryptor, rng):
        pk = keygen.public_key()
        enc = Encryptor(ctx, public_key=pk)
        z = rng.normal(size=8) + 1j * rng.normal(size=8)
        ct = enc.encrypt_values(z)
        assert np.max(np.abs(decryptor.decrypt_values(ct) - z)) < 1e-3

    def test_round_trip_lower_level(self, ctx, keygen, decryptor, rng):
        enc = Encryptor(ctx, public_key=keygen.public_key())
        z = rng.normal(size=8)
        ct = enc.encrypt_values(z, limbs=3)
        assert ct.num_limbs == 3
        assert np.max(np.abs(decryptor.decrypt_values(ct) - z)) < 1e-3

    def test_requires_some_key(self, ctx):
        with pytest.raises(ValueError):
            Encryptor(ctx)


class TestDecryptor:
    def test_decrypt_returns_plaintext_with_scale(self, encryptor, decryptor):
        ct = encryptor.encrypt_values([0.5] * 8)
        pt = decryptor.decrypt(ct)
        assert pt.scale == ct.scale
        assert len(pt.coeffs) == 16

    def test_wrong_key_garbles(self, ctx, encryptor):
        from repro.ckks import KeyGenerator

        other = KeyGenerator(ctx)
        wrong = Decryptor(ctx, other.secret_key)
        z = np.full(8, 0.5)
        ct = encryptor.encrypt_values(z)
        assert np.max(np.abs(wrong.decrypt_values(ct) - z)) > 1.0


def unfused_symmetric(ctx, secret_key, plaintext, limbs):
    """``-(a s) + m + e``, with ``m`` and ``e`` transformed apart."""
    basis = ctx.basis_at(limbs)
    s = secret_key.poly(basis)
    a = RnsPolynomial(basis, ctx.sample_uniform_rows(basis), Representation.EVAL)
    e = RnsPolynomial.from_int_coeffs(ctx.sample_error_coeffs(), basis).to_eval()
    m = plaintext.to_poly(basis)
    return Ciphertext(c0=-(a * s) + m + e, c1=a, scale=plaintext.scale)


def unfused_public(ctx, public_key, plaintext, limbs):
    """``(pk0 u + e0 + m, pk1 u + e1)`` over copied key rows."""
    basis = ctx.basis_at(limbs)
    pk0 = public_key.pk0.select_limbs(slice(0, limbs), basis)
    pk1 = public_key.pk1.select_limbs(slice(0, limbs), basis)
    u = RnsPolynomial.from_int_coeffs(ctx.sample_ternary_coeffs(), basis).to_eval()
    e0 = RnsPolynomial.from_int_coeffs(ctx.sample_error_coeffs(), basis).to_eval()
    e1 = RnsPolynomial.from_int_coeffs(ctx.sample_error_coeffs(), basis).to_eval()
    m = plaintext.to_poly(basis)
    return Ciphertext(c0=pk0 * u + e0 + m, c1=pk1 * u + e1, scale=plaintext.scale)


#: Plaintexts whose ``m + e`` would wrap in int64, or is past it.
WIDE = {
    "int64-wide": [2**63 - 1, -(2**63), 2**62, -(2**62), 2**62 - 1, 1 - 2**62],
    "past-int64": [2**64 + 1, -(2**70), 2**63, 5],
}


class TestFusedAgainstUnfused:
    """``m + e`` lifted as one vector gives the unfused ciphertext's limbs."""

    @pytest.fixture(scope="class")
    def public_key(self, keygen):
        return keygen.public_key()

    @pytest.fixture(params=["encoded", *WIDE])
    def plaintext(self, request, encryptor):
        if request.param == "encoded":
            return encryptor.encode(np.linspace(-1, 1, 8) + 0.5j)
        return Plaintext((WIDE[request.param] * 4)[:16], 2.0**20)

    @pytest.mark.parametrize("oracle", [False, True], ids=["kernels", "oracle"])
    @pytest.mark.parametrize("limbs", [6, 2, 1])
    @pytest.mark.parametrize("mode", ["symmetric", "public"])
    def test_same_limbs_and_rng_state(
        self, ctx, keygen, public_key, plaintext, mode, limbs, oracle
    ):
        if mode == "symmetric":
            enc = Encryptor(ctx, secret_key=keygen.secret_key)
            unfused, key = unfused_symmetric, keygen.secret_key
        else:
            enc = Encryptor(ctx, public_key=public_key)
            unfused, key = unfused_public, public_key
        previous = kernels.set_enabled(not oracle)
        try:
            before = ctx.rng.getstate()
            ct = enc.encrypt(plaintext, limbs=limbs)
            after = ctx.rng.getstate()
            ctx.rng.setstate(before)
            want = unfused(ctx, key, plaintext, limbs)
        finally:
            kernels.set_enabled(previous)
        assert ctx.rng.getstate() == after
        assert ct.c0 == want.c0 and ct.c1 == want.c1
        assert ct.scale == want.scale

    def test_wrong_length_plaintext_is_named(self, encryptor):
        with pytest.raises(ValueError, match="expected 16 coefficients, got 3"):
            encryptor.encrypt(Plaintext([1, 2, 3], 2.0**20))


@pytest.mark.parametrize(
    "coeffs, noise",
    [
        ([2**63 - 1, -(2**63)], [5, -5]),
        ([2**62 - 1, 1 - 2**62], [2**62 - 1, 1 - 2**62]),
        ([2**62, -(2**62)], [-1, 1]),
        ([2**64 + 1, -3], [7, -(2**65)]),
        ([0, -1], [3, 2]),
    ],
    ids=["int64-edges", "below-bound", "at-bound", "past-int64", "small"],
)
def test_with_noise_is_the_python_int_sum(coeffs, noise):
    got = _with_noise(coeffs, noise)
    assert [int(v) for v in got] == [a + b for a, b in zip(coeffs, noise)]
    if isinstance(got, np.ndarray):
        assert got.dtype == np.int64
