import gc
import weakref

import numpy as np
import pytest

from repro import kernels
from repro.ckks import CkksContext, Encryptor, Evaluator, KeyGenerator
from repro.kernels import fourstep
from repro.numth import NttContext, find_ntt_primes
from repro.params.presets import toy_params
from repro.ring import RnsBasis
from repro.ring import basis as basis_module


@pytest.fixture(scope="module")
def basis():
    return RnsBasis.generate(16, 30, 4)


class TestConstruction:
    def test_generate_produces_distinct_ntt_primes(self, basis):
        assert len(set(basis.moduli)) == 4
        for q in basis:
            assert q % 32 == 1

    def test_rejects_non_power_of_two_degree(self):
        primes = find_ntt_primes(30, 16, 1)
        with pytest.raises(ValueError):
            RnsBasis(12, primes)

    def test_rejects_duplicate_moduli(self):
        q = find_ntt_primes(30, 16, 1)[0]
        with pytest.raises(ValueError):
            RnsBasis(16, [q, q])

    def test_rejects_incompatible_modulus(self):
        with pytest.raises(ValueError):
            RnsBasis(16, [113])

    def test_rejects_empty(self):
        with pytest.raises(ValueError):
            RnsBasis(16, [])

    def test_equality_and_hash(self, basis):
        same = RnsBasis(16, basis.moduli)
        assert same == basis
        assert hash(same) == hash(basis)

    def test_exclude_in_generate(self, basis):
        other = RnsBasis.generate(16, 30, 2, exclude=basis.moduli)
        assert not set(other.moduli) & set(basis.moduli)


class TestDerivedBases:
    def test_prefix(self, basis):
        sub = basis.prefix(2)
        assert sub.moduli == basis.moduli[:2]

    def test_drop_last(self, basis):
        assert basis.drop_last().moduli == basis.moduli[:-1]
        assert basis.drop_last(2).moduli == basis.moduli[:-2]

    def test_drop_everything_rejected(self, basis):
        with pytest.raises(ValueError):
            basis.drop_last(4)

    def test_extended(self, basis):
        extra = find_ntt_primes(30, 16, 2, exclude=basis.moduli)
        merged = basis.extended(extra)
        assert merged.moduli == basis.moduli + tuple(extra)

    def test_prefix_bounds(self, basis):
        with pytest.raises(ValueError):
            basis.prefix(0)
        with pytest.raises(ValueError):
            basis.prefix(5)


class TestPrecomputations:
    def test_modulus_is_product(self, basis):
        product = 1
        for q in basis:
            product *= q
        assert basis.modulus == product

    def test_q_hat_inverses(self, basis):
        total = basis.modulus
        for q, inv in zip(basis, basis.q_hat_inverses()):
            assert (total // q) * inv % q == 1

    def test_q_stars_mod(self, basis):
        total = basis.modulus
        target = 97
        for q, star in zip(basis, basis.q_stars_mod(target)):
            assert star == (total // q) % target

    def test_ntt_contexts_are_cached(self, basis):
        assert basis.ntt(0) is basis.ntt(0)
        assert basis.ntt(0).q == basis.moduli[0]


class TestFastPath:
    """``RnsBasis.fast_path``: the one test for whether a basis runs the
    int64 kernels."""

    def test_follows_the_kernel_switch_at_call_time(self, basis):
        assert basis.dtype == np.int64
        previous = kernels.set_enabled(True)
        try:
            assert basis.fast_path
            with kernels.oracle_only():
                assert not basis.fast_path
            assert basis.fast_path
        finally:
            kernels.set_enabled(previous)

    def test_wide_moduli_never_take_it(self):
        wide = RnsBasis.generate(16, 40, 2)
        assert wide.dtype == object
        previous = kernels.set_enabled(True)
        try:
            assert not wide.fast_path
        finally:
            kernels.set_enabled(previous)


class TestOraclePlanResidency:
    """The fast path keeps no oracle NTT plan; the oracle path caches its own."""

    @pytest.fixture()
    def plans(self, monkeypatch):
        """Empty plan caches and table stores; every plan built is tracked.

        Returns weak references to each plan built and, per build, how
        many tracked plans were alive at once.
        """
        built, alive = [], []

        class TrackedContext(NttContext):
            def __init__(self, n, q):
                super().__init__(n, q)
                built.append(weakref.ref(self))
                alive.append(sum(ref() is not None for ref in built))

        for module in (basis_module, fourstep):
            monkeypatch.setattr(module, "NttContext", TrackedContext)
        monkeypatch.setattr(basis_module, "_NTT_CACHE", {})
        monkeypatch.setattr(basis_module, "_KERNEL_CACHE", {})
        monkeypatch.setattr(fourstep, "_STORES", {})
        return built, alive

    def _rows(self, basis):
        return np.arange(len(basis) * basis.degree, dtype=np.int64).reshape(
            len(basis), basis.degree
        )

    def test_fast_kernel_keeps_no_plan(self, plans):
        built, alive = plans
        basis = RnsBasis.generate(64, 30, 4)
        previous = kernels.set_enabled(True)
        try:
            assert basis.fast_kernel() is not None
            rows = self._rows(basis)
            back = basis.transform(basis.transform(rows), inverse=True)
        finally:
            kernels.set_enabled(previous)
        assert np.array_equal(back, rows)
        assert len(built) == len(basis)  # one plan per fresh modulus
        assert max(alive) == 1  # built and dropped one at a time
        gc.collect()
        assert all(ref() is None for ref in built)
        assert basis_module._NTT_CACHE == {}

    def test_ckks_setup_keeps_no_plan(self, plans):
        # The whole scheme on fresh moduli: encryption, keys (compressed
        # and full) and a relinearised, rescaled multiply.  Every NTT goes
        # through a table store, so no plan survives and none is cached.
        built, alive = plans
        previous = kernels.set_enabled(True)
        try:
            context = CkksContext(
                toy_params(log_n=4, log_q=30, max_limbs=4, dnum=2), seed=3
            )
            kg = KeyGenerator(context)
            full = KeyGenerator(context, compress_keys=False)
            evaluator = Evaluator(
                context,
                relin_key=kg.relinearization_key(),
                rotation_keys={1: full.rotation_key(1)},
            )
            ct = Encryptor(context, secret_key=kg.secret_key).encrypt_values(
                [0.5] * 8
            )
            evaluator.rotate(evaluator.mult(ct, ct), 1)
        finally:
            kernels.set_enabled(previous)
        assert built  # the fresh moduli did need plans for their tables
        assert max(alive) == 1
        gc.collect()
        assert all(ref() is None for ref in built)
        assert basis_module._NTT_CACHE == {}

    def test_oracle_transform_builds_plans_once(self, plans):
        built, _ = plans
        basis = RnsBasis.generate(64, 30, 4)
        rows = self._rows(basis)
        with kernels.oracle_only():
            first = basis.transform(rows)
            assert len(built) == len(basis)
            assert np.array_equal(basis.transform(rows), first)
        assert len(built) == len(basis)
        cached = basis_module._NTT_CACHE
        assert len(cached) == len(basis)
        for i, q in enumerate(basis.moduli):
            assert basis.ntt(i) is cached[(64, q)]
