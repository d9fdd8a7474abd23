"""Differential tests for the vectorized RNS basis-conversion kernels."""

import random

import pytest
from hypothesis import given, settings, strategies as st

from repro import kernels
from repro.kernels import new_limbs_matrix, sub_scale_mod
from repro.numth import find_ntt_primes
from repro.ring import Representation, RnsBasis, RnsPolynomial
from repro.ring.conversion import mod_down, mod_up, new_limb, rescale


def _random_rows(primes, degree, seed):
    rng = random.Random(seed)
    return [[rng.randrange(q) for _ in range(degree)] for q in primes]


class TestNewLimbsMatrix:
    @settings(max_examples=20, deadline=None)
    @given(
        log_n=st.integers(2, 6),
        source_limbs=st.integers(1, 8),
        target_limbs=st.integers(1, 3),
        seed=st.integers(0, 2**32),
    )
    def test_matches_oracle_new_limb(
        self, log_n, source_limbs, target_limbs, seed
    ):
        degree = 1 << log_n
        primes = find_ntt_primes(30, degree, source_limbs + target_limbs)
        basis = RnsBasis(degree, primes[:source_limbs])
        targets = primes[source_limbs:]
        rows = _random_rows(basis.moduli, degree, seed)
        got = new_limbs_matrix(
            rows,
            list(basis.moduli),
            basis.q_hat_inverses(),
            [basis.q_stars_mod(t) for t in targets],
            targets,
        )
        assert got.tolist() == [new_limb(rows, basis, t) for t in targets]

    def test_deep_basis_accumulator_stays_exact(self):
        # Twelve maximal source limbs: the per-limb canonical reduction is
        # what keeps the int64 accumulator from overflowing here.
        degree = 16
        primes = find_ntt_primes(30, degree, 13)
        basis = RnsBasis(degree, primes[:12])
        target = primes[12]
        rows = [[q - 1] * degree for q in basis.moduli]
        got = new_limbs_matrix(
            rows,
            list(basis.moduli),
            basis.q_hat_inverses(),
            [basis.q_stars_mod(target)],
            [target],
        )
        assert got.tolist() == [new_limb(rows, basis, target)]


class TestSubScaleMod:
    @settings(max_examples=30, deadline=None)
    @given(
        log_n=st.integers(2, 6),
        num_limbs=st.integers(1, 4),
        seed=st.integers(0, 2**32),
    )
    def test_matches_python_moddown_tail(self, log_n, num_limbs, seed):
        degree = 1 << log_n
        primes = find_ntt_primes(30, degree, num_limbs)
        a = _random_rows(primes, degree, seed)
        h = _random_rows(primes, degree, seed + 1)
        rng = random.Random(seed + 2)
        scales = [rng.randrange(1, q) for q in primes]
        got = sub_scale_mod(a, h, scales, primes)
        assert got.tolist() == [
            [(x - y) * s % q for x, y in zip(ra, rh)]
            for ra, rh, s, q in zip(a, h, scales, primes)
        ]


class TestRingConversionDispatch:
    """ModUp/ModDown through the ring layer: fast path == oracle path."""

    def _eval_poly(self, degree, limbs, extra, seed=17):
        primes = find_ntt_primes(30, degree, limbs + extra)
        basis = RnsBasis(degree, primes[:limbs])
        rows = _random_rows(basis.moduli, degree, seed)
        poly = RnsPolynomial(basis, rows, Representation.COEFF).to_eval()
        return poly, primes[limbs:]

    def test_mod_up_matches_oracle(self):
        poly, extension = self._eval_poly(degree=32, limbs=3, extra=2)
        fast = mod_up(poly, extension)
        with kernels.oracle_only():
            slow = mod_up(poly.clone(), extension)
        assert fast == slow

    def test_mod_down_matches_oracle(self):
        poly, extension = self._eval_poly(degree=32, limbs=3, extra=2)
        raised = mod_up(poly, extension)
        fast = mod_down(raised, len(extension))
        with kernels.oracle_only():
            slow = mod_down(raised.clone(), len(extension))
        assert fast == slow

    def test_rescale_matches_oracle(self):
        poly, _ = self._eval_poly(degree=64, limbs=4, extra=0)
        fast = rescale(poly)
        with kernels.oracle_only():
            slow = rescale(poly.clone())
        assert fast == slow

    def test_mixed_moduli_fall_back_per_step(self):
        # Source limbs fit the fast path but the extension does not: the
        # conversion must still be exact (each step gates independently).
        degree = 32
        small = find_ntt_primes(30, degree, 2)
        big = find_ntt_primes(40, degree, 1)
        basis = RnsBasis(degree, small)
        rows = _random_rows(basis.moduli, degree, seed=23)
        poly = RnsPolynomial(basis, rows, Representation.COEFF).to_eval()
        fast = mod_up(poly, big)
        with kernels.oracle_only():
            slow = mod_up(poly.clone(), big)
        assert fast == slow
