import numpy as np
import pytest

from repro.params.presets import toy_params
from repro.ckks import (
    Bootstrapper,
    CkksContext,
    Decryptor,
    Encryptor,
    KeyGenerator,
    approximate_mod_poly,
)
from repro.ckks.polyeval import chebyshev_value


@pytest.fixture(scope="module")
def boot_env():
    params = toy_params(log_n=4, log_q=29, max_limbs=14, dnum=3)
    ctx = CkksContext(params, scale_bits=29, seed=5)
    kg = KeyGenerator(ctx, hamming_weight=4)
    return {
        "ctx": ctx,
        "kg": kg,
        "enc": Encryptor(ctx, secret_key=kg.secret_key),
        "dec": Decryptor(ctx, kg.secret_key),
        "bs": Bootstrapper(ctx, kg, mod_degree=63),
    }


class TestApproximateModPoly:
    def test_matches_centered_mod_near_integers(self):
        coeffs, interval = approximate_mod_poly(k_bound=4, degree=63)
        rng = np.random.default_rng(1)
        ks = rng.integers(-4, 5, size=64)
        eps = rng.uniform(-0.01, 0.01, size=64)
        xs = ks + eps
        approx = chebyshev_value(coeffs, xs, interval)
        # sin(2 pi eps)/(2 pi) = eps + O(eps^3)
        assert np.max(np.abs(approx - eps)) < 1e-5

    def test_rejects_bad_bound(self):
        with pytest.raises(ValueError):
            approximate_mod_poly(0, 31)


class TestModRaise:
    def test_raises_to_full_chain(self, boot_env):
        enc, bs, ctx = boot_env["enc"], boot_env["bs"], boot_env["ctx"]
        ct = enc.encrypt_values([0.1] * 8, scale=2.0**23, limbs=1)
        raised = bs.mod_raise(ct)
        assert raised.num_limbs == ctx.max_limbs
        assert raised.scale == float(ctx.q_basis.moduli[0])

    def test_raised_plaintext_is_message_plus_q_multiple(self, boot_env):
        enc, dec, bs, ctx, kg = (
            boot_env["enc"],
            boot_env["dec"],
            boot_env["bs"],
            boot_env["ctx"],
            boot_env["kg"],
        )
        scale = 2.0**23
        ct = enc.encrypt_values([0.25] * 8, scale=scale, limbs=1)
        original = dec.decrypt(ct).coeffs
        raised = bs.mod_raise(ct)
        raised_coeffs = dec.decrypt(raised).coeffs
        q1 = ctx.q_basis.moduli[0]
        for got, want in zip(raised_coeffs, original):
            assert (got - want) % q1 == 0

    def test_overflow_term_bounded_by_secret_weight(self, boot_env):
        enc, dec, bs, ctx = (
            boot_env["enc"],
            boot_env["dec"],
            boot_env["bs"],
            boot_env["ctx"],
        )
        ct = enc.encrypt_values([0.2] * 8, scale=2.0**23, limbs=1)
        raised = bs.mod_raise(ct)
        q1 = ctx.q_basis.moduli[0]
        coeffs = dec.decrypt(raised).coeffs
        k_values = [round(c / q1) for c in coeffs]
        assert max(abs(k) for k in k_values) <= bs.k_bound


class TestPhases:
    def test_coeff_to_slot_extracts_coefficients(self, boot_env):
        enc, dec, bs, ctx = (
            boot_env["enc"],
            boot_env["dec"],
            boot_env["bs"],
            boot_env["ctx"],
        )
        z = np.array([0.3, -0.2, 0.15, 0.05, -0.1, 0.25, 0.0, -0.05])
        ct = enc.encrypt_values(z, scale=2.0**23, limbs=1)
        raised = bs.mod_raise(ct)
        raised_coeffs = np.array(dec.decrypt(raised).coeffs, dtype=np.float64)
        q1 = ctx.q_basis.moduli[0]
        u_real, u_imag = bs.coeff_to_slot(raised)
        got_real = dec.decrypt_values(u_real).real
        got_imag = dec.decrypt_values(u_imag).real
        assert np.max(np.abs(got_real - raised_coeffs[:8] / q1)) < 1e-2
        assert np.max(np.abs(got_imag - raised_coeffs[8:] / q1)) < 1e-2

    def test_c2s_then_s2c_is_identity(self, boot_env):
        enc, dec, bs, ctx = (
            boot_env["enc"],
            boot_env["dec"],
            boot_env["bs"],
            boot_env["ctx"],
        )
        z = np.array([0.3, -0.2, 0.15, 0.05, -0.1, 0.25, 0.0, -0.05])
        ct = enc.encrypt_values(z, scale=2.0**23, limbs=1)
        raised = bs.mod_raise(ct)
        want = dec.decrypt_values(raised)
        u_real, u_imag = bs.coeff_to_slot(raised)
        ev = bs.evaluator
        packed = ev.add(u_real, ev.pt_mult(u_imag, [1j] * 8))
        back = bs.slot_to_coeff(packed)
        got = dec.decrypt_values(back)
        assert np.max(np.abs(got - want)) / np.max(np.abs(want)) < 1e-2

    def test_eval_mod_reduces_integers(self, boot_env):
        enc, dec, bs = boot_env["enc"], boot_env["dec"], boot_env["bs"]
        # Slots hold k + eps with integer k; EvalMod should return eps.
        eps = np.array([0.01, -0.02, 0.005, 0.015, -0.01, 0.0, 0.02, -0.005])
        ks = np.array([1, -2, 0, 3, -3, 2, -1, 0])
        ct = enc.encrypt_values(ks + eps)
        out = bs.eval_mod(ct)
        got = dec.decrypt_values(out).real
        assert np.max(np.abs(got - eps)) < 2e-3


def _count_calls(monkeypatch, owner, name):
    """Record every call of ``owner.name`` in the returned list."""
    calls = []
    method = getattr(owner, name)

    def counted(*args, **kwargs):
        calls.append(1)
        return method(*args, **kwargs)

    monkeypatch.setattr(owner, name, counted)
    return calls


class TestEvalModCost:
    def test_eval_mod_never_encodes(self, boot_env, monkeypatch):
        enc, dec, bs = boot_env["enc"], boot_env["dec"], boot_env["bs"]
        eps = np.array([0.01, -0.02, 0.005, 0.015, -0.01, 0.0, 0.02, -0.005])
        ct = enc.encrypt_values(np.array([1, -2, 0, 3, -3, 2, -1, 0]) + eps)
        calls = _count_calls(monkeypatch, bs.context.encoder, "encode")
        real = bs.eval_mod(ct)
        turned = bs.eval_mod(ct, factor=1j)
        assert calls == []
        assert np.max(np.abs(dec.decrypt_values(real).real - eps)) < 2e-3
        assert np.max(np.abs(dec.decrypt_values(turned) - 1j * eps)) < 2e-3

    def test_bootstrap_keeps_its_level_budget(self, boot_env, monkeypatch):
        # Scalar constants, one rescale per leaf and the x^(N/2) turn
        # change EvalMod's cost, not its levels: the toy bootstrap still
        # ends on 4 limbs, with 14 Mults per EvalMod branch (the odd sine
        # series builds no T_6).
        enc, bs = boot_env["enc"], boot_env["bs"]
        ct = enc.encrypt_values([0.2] * 8, scale=2.0**23, limbs=1)
        calls = _count_calls(monkeypatch, bs.evaluator, "mult")
        assert bs.bootstrap(ct).num_limbs == 4
        assert len(calls) == 28


class TestFullBootstrap:
    def test_refreshes_message(self, boot_env):
        enc, dec, bs = boot_env["enc"], boot_env["dec"], boot_env["bs"]
        z = np.array([0.3, -0.25, 0.1 + 0.2j, 0.05, -0.15j, 0.2, 0.0, -0.3])
        ct = enc.encrypt_values(z, scale=2.0**23, limbs=1)
        out = bs.bootstrap(ct)
        assert out.num_limbs > 1
        assert np.max(np.abs(dec.decrypt_values(out) - z)) < 2e-2

    def test_output_supports_further_computation(self, boot_env):
        enc, dec, bs = boot_env["enc"], boot_env["dec"], boot_env["bs"]
        z = np.array([0.3, -0.2, 0.1, 0.05, -0.15, 0.2, 0.0, -0.3])
        ct = enc.encrypt_values(z, scale=2.0**23, limbs=1)
        out = bs.bootstrap(ct)
        ev = bs.evaluator
        squared = ev.mult(out, out)
        got = dec.decrypt_values(squared).real
        assert np.max(np.abs(got - z**2)) < 3e-2

    def test_multi_limb_input_accepted(self, boot_env):
        enc, dec, bs = boot_env["enc"], boot_env["dec"], boot_env["bs"]
        z = np.array([0.1, -0.1, 0.2, 0.0, 0.05, -0.05, 0.15, -0.2])
        ct = enc.encrypt_values(z, scale=2.0**23, limbs=2)
        out = bs.bootstrap(ct)
        assert np.max(np.abs(dec.decrypt_values(out) - z)) < 2e-2

    def test_naive_method_matches(self, boot_env):
        enc, dec, bs = boot_env["enc"], boot_env["dec"], boot_env["bs"]
        z = np.array([0.2, -0.1, 0.0, 0.1, -0.2, 0.15, 0.05, -0.05])
        ct = enc.encrypt_values(z, scale=2.0**23, limbs=1)
        out = bs.bootstrap(ct, method="naive")
        assert np.max(np.abs(dec.decrypt_values(out) - z)) < 2e-2

    def test_default_k_bound_derived_from_secret(self, boot_env):
        assert boot_env["bs"].k_bound == 4 // 2 + 2

    def test_fast_path_matches_oracle_bit_exactly(self, boot_env):
        # The whole pipeline — encode, ModRaise, CoeffToSlot, EvalMod,
        # SlotToCoeff, every KeySwitch — must produce the *identical*
        # ciphertext whichever NTT/conversion engine the ring layer picks.
        # This is the end-to-end form of the kernels' differential
        # contract (tests/kernels pins it per-operation).
        from repro import kernels

        enc, bs = boot_env["enc"], boot_env["bs"]
        z = np.array([0.25, -0.2, 0.1, 0.0, -0.15, 0.3, 0.05, -0.1])
        ct = enc.encrypt_values(z, scale=2.0**23, limbs=1)
        fast = bs.bootstrap(ct)
        with kernels.oracle_only():
            slow = bs.bootstrap(ct)
        assert fast.scale == slow.scale
        assert fast.c0 == slow.c0
        assert fast.c1 == slow.c1
