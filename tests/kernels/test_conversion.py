"""Differential tests for the vectorized RNS basis-conversion kernels."""

import random

import numpy as np
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
        # Twelve maximal source limbs in one uint64 block product.
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


    @pytest.mark.parametrize("source_limbs", [16, 17, 33])
    def test_blocks_of_sixteen_at_the_bound(self, source_limbs):
        # Largest primes and every residue q - 1: each uint64 block sum is
        # at its maximum, and 17 and 33 limbs add a partial block.
        degree = 16
        primes = find_ntt_primes(30, degree, source_limbs + 2)
        basis = RnsBasis(degree, primes[:source_limbs])
        targets = primes[source_limbs:]
        rows = [[q - 1] * degree for q in basis.moduli]
        got = new_limbs_matrix(
            rows,
            list(basis.moduli),
            basis.q_hat_inverses(),
            [basis.q_stars_mod(t) for t in targets],
            targets,
        )
        assert got.dtype == np.int64
        assert got.tolist() == [new_limb(rows, basis, t) for t in targets]


class TestConversionShapeErrors:
    """Mismatched inputs raise a named error instead of broadcasting."""

    def _args(self, source_limbs=3, target_limbs=2, degree=16):
        primes = find_ntt_primes(30, degree, source_limbs + target_limbs)
        basis = RnsBasis(degree, primes[:source_limbs])
        targets = primes[source_limbs:]
        return {
            "coeff_rows": _random_rows(basis.moduli, degree, seed=1),
            "moduli": list(basis.moduli),
            "q_hat_inverses": basis.q_hat_inverses(),
            "q_stars": [basis.q_stars_mod(t) for t in targets],
            "targets": targets,
        }

    def test_rows_against_moduli(self):
        args = self._args()
        args["moduli"] = args["moduli"][:1]
        args["q_hat_inverses"] = args["q_hat_inverses"][:1]
        args["q_stars"] = [row[:1] for row in args["q_stars"]]
        with pytest.raises(ValueError, match="rows=3 but moduli=1"):
            new_limbs_matrix(**args)

    def test_inverses_against_rows(self):
        args = self._args()
        args["q_hat_inverses"] = args["q_hat_inverses"][:2]
        with pytest.raises(ValueError, match="q_hat_inverses=2"):
            new_limbs_matrix(**args)

    def test_star_columns_against_rows(self):
        args = self._args()
        args["q_stars"] = [row[:1] for row in args["q_stars"]]
        with pytest.raises(ValueError, match="star_columns=1"):
            new_limbs_matrix(**args)

    def test_star_rows_against_targets(self):
        args = self._args()
        args["targets"] = args["targets"][:1]
        with pytest.raises(ValueError, match="targets=1 but star_rows=2"):
            new_limbs_matrix(**args)

    def test_sub_scale_mod_matrix_shapes(self):
        primes = find_ntt_primes(30, 16, 3)
        a = _random_rows(primes, 16, seed=2)
        with pytest.raises(ValueError, match="one shape"):
            sub_scale_mod(a, a[:1], [1, 1, 1], primes)

    @pytest.mark.parametrize(
        "scales, moduli, message",
        [
            ([1], None, "rows=3 but scales=1"),
            (None, 1, "moduli=1"),
        ],
    )
    def test_sub_scale_mod_lengths(self, scales, moduli, message):
        primes = find_ntt_primes(30, 16, 3)
        a = _random_rows(primes, 16, seed=2)
        h = _random_rows(primes, 16, seed=3)
        with pytest.raises(ValueError, match=message):
            sub_scale_mod(
                a,
                h,
                scales if scales is not None else [1, 1, 1],
                primes[:moduli] if moduli is not None else primes,
            )


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
        target = poly.basis.extended(extension)
        fast = mod_up(poly, target)
        with kernels.oracle_only():
            slow = mod_up(poly.clone(), target)
        assert fast == slow

    def test_mod_down_matches_oracle(self):
        poly, extension = self._eval_poly(degree=32, limbs=3, extra=2)
        raised = mod_up(poly, poly.basis.extended(extension))
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
        target = basis.extended(big)
        fast = mod_up(poly, target)
        with kernels.oracle_only():
            slow = mod_up(poly.clone(), target)
        assert fast == slow
