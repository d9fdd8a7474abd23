import numpy as np
import pytest

from repro.params import BASELINE_JUNG, toy_params
from repro.ckks import CkksContext, Decryptor, Encryptor, Evaluator, KeyGenerator
from repro.ckks.serialize import (
    ciphertext_from_dict,
    ciphertext_to_dict,
    dumps,
    loads,
    params_from_dict,
    params_to_dict,
    plaintext_from_dict,
    plaintext_to_dict,
    secret_key_from_dict,
    secret_key_to_dict,
    serialized_size,
    switching_key_from_dict,
    switching_key_to_dict,
)


class TestParamsRoundTrip:
    def test_round_trip(self):
        assert params_from_dict(params_to_dict(BASELINE_JUNG)) == BASELINE_JUNG

    def test_json_round_trip(self):
        text = dumps(params_to_dict(BASELINE_JUNG))
        assert params_from_dict(loads(text)) == BASELINE_JUNG

    def test_word_bytes_preserved(self):
        from repro.hardware import CRATERLAKE

        restored = params_from_dict(params_to_dict(CRATERLAKE.params))
        assert restored == CRATERLAKE.params
        assert restored.word_bytes == 4


class TestCiphertextRoundTrip:
    def test_round_trip_preserves_decryption(self, ctx, encryptor, decryptor, rng):
        z = rng.normal(size=8) + 1j * rng.normal(size=8)
        ct = encryptor.encrypt_values(z)
        restored = ciphertext_from_dict(
            loads(dumps(ciphertext_to_dict(ct))), ctx
        )
        assert restored.scale == ct.scale
        assert np.max(np.abs(decryptor.decrypt_values(restored) - z)) < 1e-4

    def test_restored_ciphertext_computable(self, ctx, encryptor, decryptor, evaluator, rng):
        z = rng.normal(size=8)
        ct = encryptor.encrypt_values(z)
        restored = ciphertext_from_dict(ciphertext_to_dict(ct), ctx)
        doubled = evaluator.add(restored, restored)
        assert np.max(np.abs(decryptor.decrypt_values(doubled) - 2 * z)) < 1e-3


class TestPlaintextRoundTrip:
    def test_round_trip(self, ctx):
        pt = ctx.encoder.encode([0.5] * 8)
        from repro.ckks import Plaintext

        original = Plaintext(pt, ctx.scale)
        restored = plaintext_from_dict(plaintext_to_dict(original))
        assert restored == original


class TestSecretKeyRoundTrip:
    def test_round_trip_decrypts(self, ctx, keygen, encryptor, rng):
        restored = secret_key_from_dict(
            secret_key_to_dict(keygen.secret_key), ctx
        )
        dec = Decryptor(ctx, restored)
        z = rng.normal(size=8)
        ct = encryptor.encrypt_values(z)
        assert np.max(np.abs(dec.decrypt_values(ct) - z)) < 1e-4


class TestSwitchingKeyRoundTrip:
    @pytest.fixture(scope="class")
    def fresh_env(self):
        context = CkksContext(toy_params(), seed=31)
        kg = KeyGenerator(context, compress_keys=True)
        return context, kg

    def test_compressed_round_trip_functional(self, fresh_env, rng):
        context, kg = fresh_env
        relin = kg.relinearization_key()
        restored = switching_key_from_dict(
            loads(dumps(switching_key_to_dict(relin, context, compressed=True))),
            context,
        )
        # The restored key must actually relinearise correctly.
        enc = Encryptor(context, secret_key=kg.secret_key)
        dec = Decryptor(context, kg.secret_key)
        ev = Evaluator(context, relin_key=restored)
        z = rng.normal(size=context.slots)
        ct = enc.encrypt_values(z)
        out = ev.mult(ct, ct)
        assert np.max(np.abs(dec.decrypt_values(out) - z * z)) < 1e-2

    def test_expanded_a_rows_match_original(self, fresh_env):
        context, kg = fresh_env
        relin = kg.relinearization_key()
        restored = switching_key_from_dict(
            switching_key_to_dict(relin, context, compressed=True), context
        )
        assert restored.is_compressed and restored.seeds == relin.seeds
        full = context.max_limbs
        for (b0, a0), (b1, a1) in zip(
            relin.restricted(full, context), restored.restricted(full, context)
        ):
            assert a0 == a1
            assert b0 == b1

    def test_compression_halves_serialized_size(self, fresh_env):
        context, kg = fresh_env
        relin = kg.relinearization_key()
        compressed = serialized_size(
            switching_key_to_dict(relin, context, compressed=True)
        )
        full = serialized_size(
            switching_key_to_dict(relin, context, compressed=False)
        )
        assert compressed < 0.6 * full  # ~half, as the paper claims

    @pytest.mark.parametrize("compress", [True, False])
    def test_uncompressed_round_trip(self, compress):
        context = CkksContext(toy_params(), seed=31)
        relin = KeyGenerator(context, compress_keys=compress).relinearization_key()
        restored = switching_key_from_dict(
            switching_key_to_dict(relin, context, compressed=False), context
        )
        assert not restored.is_compressed
        full = context.max_limbs
        for (b0, a0), (b1, a1) in zip(
            relin.restricted(full, context), restored.restricted(full, context)
        ):
            assert a0 == a1 and b0 == b1

    def test_compressed_requires_seeds(self):
        context = CkksContext(toy_params(), seed=37)
        kg = KeyGenerator(context, compress_keys=False)
        with pytest.raises(ValueError):
            switching_key_to_dict(
                kg.relinearization_key(), context, compressed=True
            )
