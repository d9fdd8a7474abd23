import random

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro import kernels
from repro.numth import find_ntt_primes
from repro.ring import Representation, RnsBasis, RnsPolynomial
from repro.ring import polynomial


@pytest.fixture(scope="module")
def basis():
    return RnsBasis.generate(16, 30, 3)


def _random_poly(basis, seed=0, bound=1000):
    rng = random.Random(seed)
    coeffs = [rng.randrange(-bound, bound) for _ in range(basis.degree)]
    return coeffs, RnsPolynomial.from_int_coeffs(coeffs, basis)


def _naive_negacyclic(a, b, n):
    out = [0] * n
    for i, ai in enumerate(a):
        for j, bj in enumerate(b):
            k = i + j
            if k >= n:
                out[k - n] -= ai * bj
            else:
                out[k] += ai * bj
    return out


class TestConstruction:
    def test_zero(self, basis):
        z = RnsPolynomial.zero(basis)
        assert all(all(c == 0 for c in row) for row in z.limbs)

    def test_limb_count_checked(self, basis):
        with pytest.raises(ValueError):
            RnsPolynomial(basis, [[0] * 16], Representation.COEFF)

    def test_limb_length_checked(self, basis):
        with pytest.raises(ValueError):
            RnsPolynomial(basis, [[0] * 8] * 3, Representation.COEFF)

    def test_from_int_coeffs_reduces_mod_each_limb(self, basis):
        coeffs = [-1] + [0] * 15
        poly = RnsPolynomial.from_int_coeffs(coeffs, basis)
        for row, q in zip(poly.limbs, basis):
            assert row[0] == q - 1

    def test_clone_is_deep(self, basis):
        _, poly = _random_poly(basis)
        copy = poly.clone()
        copy.limbs[0][0] = (copy.limbs[0][0] + 1) % basis.moduli[0]
        assert copy != poly


class TestSmallIntegerLift:
    """``from_int_coeffs`` on int64 vectors inside ``(-min q, min q)``.

    Those skip the division; everything else takes ``np.remainder``.
    Both must give the residues of Python's ``%``.
    """

    @pytest.fixture(scope="class")
    def mixed_basis(self):
        # The smallest modulus sits last, so the bound is not limb 0's.
        return RnsBasis(16, find_ntt_primes(30, 16, 2) + find_ntt_primes(20, 16, 1))

    @pytest.fixture()
    def reductions(self, monkeypatch):
        """Count the lifts that take the ``np.remainder`` reference, kernels on."""
        calls = []
        original = polynomial._reduce

        def spy(values, basis):
            calls.append(values.dtype)
            return original(values, basis)

        monkeypatch.setattr(polynomial, "_reduce", spy)
        previous = kernels.set_enabled(True)
        yield calls
        kernels.set_enabled(previous)

    @staticmethod
    def expected(coeffs, basis):
        return [[int(c) % q for c in coeffs] for q in basis.moduli]

    def lift(self, coeffs, basis):
        poly = RnsPolynomial.from_int_coeffs(coeffs, basis)
        assert poly.limbs.dtype == np.int64
        assert poly.limbs.flags.c_contiguous and poly.limbs.flags.writeable
        assert poly.limbs.tolist() == self.expected(coeffs, basis)
        return poly

    def test_edges_inside_the_bound_skip_the_division(self, mixed_basis, reductions):
        bound = min(mixed_basis.moduli)
        edges = [bound - 1, 1 - bound, 0, -1, 1, bound // 2, -(bound // 2)]
        coeffs = (edges * 3)[:16]
        self.lift(coeffs, mixed_basis)
        self.lift(np.array(coeffs, dtype=np.int64), mixed_basis)
        assert reductions == []

    @settings(max_examples=30, deadline=None)
    @given(st.lists(st.integers(-(2**20), 2**20), min_size=16, max_size=16))
    def test_matches_remainder_inside_the_bound(self, mixed_basis, coeffs):
        bound = min(mixed_basis.moduli)
        coeffs = [max(1 - bound, min(bound - 1, c)) for c in coeffs]
        fast = self.lift(coeffs, mixed_basis)
        with kernels.oracle_only():
            assert RnsPolynomial.from_int_coeffs(coeffs, mixed_basis) == fast

    @pytest.mark.parametrize(
        "edge, dtype",
        [
            ("min q", np.int64),
            ("-min q", np.int64),
            (2**62, np.int64),
            (-(2**62), np.int64),
            (2**63 - 1, np.int64),
            (-(2**63), np.int64),
            (2**64 + 5, object),
            (-(2**70) - 3, object),
        ],
        ids=["min-q", "neg-min-q", "2^62", "neg-2^62", "int64-max", "int64-min",
             "past-int64", "neg-past-int64"],
    )
    def test_fallback_outside_the_bound(self, mixed_basis, reductions, edge, dtype):
        bound = min(mixed_basis.moduli)
        value = {"min q": bound, "-min q": -bound}.get(edge, edge)
        coeffs = [value, -1, 0, 1, bound - 1] + [3] * 11
        self.lift(coeffs, mixed_basis)
        assert reductions == [np.dtype(dtype)]

    def test_oracle_takes_the_reference(self, mixed_basis, reductions):
        coeffs = [-1, 0, 1] + [5] * 13
        with kernels.oracle_only():
            self.lift(coeffs, mixed_basis)
        assert reductions == [np.dtype(np.int64)]

    def test_object_basis_takes_the_reference(self, reductions):
        wide = RnsBasis(16, find_ntt_primes(40, 16, 2))
        assert wide.dtype == object
        coeffs = [-1, 0, 1] + [5] * 13
        poly = RnsPolynomial.from_int_coeffs(coeffs, wide)
        assert poly.limbs.tolist() == self.expected(coeffs, wide)
        assert len(reductions) == 1


class TestPrefixView:
    def test_reads_the_first_rows_without_a_copy(self, basis):
        _, poly = _random_poly(basis, seed=30)
        low = basis.prefix(2)
        view = poly.prefix_view(low)
        assert view.basis == low
        assert view.representation is poly.representation
        assert np.shares_memory(view.limbs, poly.limbs)
        assert np.array_equal(view.limbs, poly.limbs[:2])
        assert view == poly.select_limbs(slice(0, 2), low)

    def test_view_is_read_only_and_products_are_fresh(self, basis):
        _, poly = _random_poly(basis, seed=31)
        ev = poly.to_eval()
        view = ev.prefix_view(basis.prefix(2))
        with pytest.raises(ValueError):
            view.limbs[0, 0] = 0
        assert ev.limbs.flags.writeable
        product = view * view
        assert not np.shares_memory(product.limbs, ev.limbs)

    def test_rejects_a_basis_that_is_not_a_prefix(self, basis):
        _, poly = _random_poly(basis, seed=32)
        suffix = RnsBasis(basis.degree, basis.moduli[1:])
        with pytest.raises(ValueError, match="prefix"):
            poly.prefix_view(suffix)


class TestCrtRoundTrip:
    def test_round_trip_centered(self, basis):
        coeffs, poly = _random_poly(basis, seed=1)
        assert poly.to_int_coeffs() == coeffs

    def test_round_trip_after_eval(self, basis):
        coeffs, poly = _random_poly(basis, seed=2)
        assert poly.to_eval().to_int_coeffs() == coeffs

    @settings(max_examples=20)
    @given(st.lists(st.integers(-(2**20), 2**20), min_size=16, max_size=16))
    def test_round_trip_property(self, coeffs):
        basis = RnsBasis.generate(16, 30, 3)
        poly = RnsPolynomial.from_int_coeffs(coeffs, basis)
        assert poly.to_int_coeffs() == coeffs


class TestRepresentation:
    def test_eval_coeff_round_trip(self, basis):
        _, poly = _random_poly(basis, seed=3)
        assert poly.to_eval().to_coeff() == poly

    def test_idempotent_conversions(self, basis):
        _, poly = _random_poly(basis, seed=4)
        ev = poly.to_eval()
        assert ev.to_eval() is ev
        assert poly.to_coeff() is poly


class TestArithmetic:
    def test_addition_matches_integers(self, basis):
        ca, pa = _random_poly(basis, seed=5)
        cb, pb = _random_poly(basis, seed=6)
        assert (pa + pb).to_int_coeffs() == [a + b for a, b in zip(ca, cb)]

    def test_subtraction_matches_integers(self, basis):
        ca, pa = _random_poly(basis, seed=7)
        cb, pb = _random_poly(basis, seed=8)
        assert (pa - pb).to_int_coeffs() == [a - b for a, b in zip(ca, cb)]

    def test_negation(self, basis):
        ca, pa = _random_poly(basis, seed=9)
        assert (-pa).to_int_coeffs() == [-a for a in ca]

    def test_multiplication_is_negacyclic(self, basis):
        ca, pa = _random_poly(basis, seed=10, bound=50)
        cb, pb = _random_poly(basis, seed=11, bound=50)
        product = (pa.to_eval() * pb.to_eval()).to_int_coeffs()
        assert product == _naive_negacyclic(ca, cb, 16)

    def test_multiplication_requires_eval_form(self, basis):
        _, pa = _random_poly(basis, seed=12)
        with pytest.raises(ValueError):
            _ = pa * pa

    def test_mixed_representation_rejected(self, basis):
        _, pa = _random_poly(basis, seed=13)
        with pytest.raises(ValueError):
            _ = pa + pa.to_eval()

    def test_scalar_mul(self, basis):
        ca, pa = _random_poly(basis, seed=14)
        assert pa.scalar_mul(7).to_int_coeffs() == [7 * a for a in ca]

    def test_scalar_mul_commutes_with_ntt(self, basis):
        _, pa = _random_poly(basis, seed=15)
        assert pa.scalar_mul(5).to_eval() == pa.to_eval().scalar_mul(5)

    def test_limb_scalar_mul(self, basis):
        _, pa = _random_poly(basis, seed=16)
        scalars = [3, 5, 7]
        result = pa.limb_scalar_mul(scalars)
        for row, orig, s, q in zip(result.limbs, pa.limbs, scalars, basis):
            assert np.array_equal(row, [a * s % q for a in orig])

    def test_limb_scalar_mul_length_checked(self, basis):
        _, pa = _random_poly(basis, seed=17)
        with pytest.raises(ValueError):
            pa.limb_scalar_mul([1, 2])


class TestAutomorphism:
    def test_identity_automorphism(self, basis):
        _, pa = _random_poly(basis, seed=18)
        assert pa.automorph(1) == pa

    def test_rejects_even_index(self, basis):
        _, pa = _random_poly(basis, seed=19)
        with pytest.raises(ValueError):
            pa.automorph(2)

    def test_coeff_automorph_on_monomial(self, basis):
        # x -> x^3 should map the monomial x to x^3.
        coeffs = [0, 1] + [0] * 14
        poly = RnsPolynomial.from_int_coeffs(coeffs, basis)
        result = poly.automorph(3).to_int_coeffs()
        expected = [0] * 16
        expected[3] = 1
        assert result == expected

    def test_coeff_automorph_wraps_negacyclically(self, basis):
        # x^15 -> x^45 = x^45 mod (x^16+1): 45 = 2*16+13 -> +x^13? 45 mod 32 = 13 < 16.
        coeffs = [0] * 16
        coeffs[15] = 1
        poly = RnsPolynomial.from_int_coeffs(coeffs, basis)
        result = poly.automorph(3).to_int_coeffs()
        expected = [0] * 16
        expected[13] = 1
        assert result == expected

    def test_eval_and_coeff_automorph_agree(self, basis):
        _, pa = _random_poly(basis, seed=20)
        for t in (3, 5, 9, 31):
            via_coeff = pa.automorph(t).to_eval()
            via_eval = pa.to_eval().automorph(t)
            assert via_coeff == via_eval

    def test_automorphisms_compose(self, basis):
        _, pa = _random_poly(basis, seed=21)
        assert pa.automorph(3).automorph(5) == pa.automorph(15)

    def test_automorphism_inverse(self, basis):
        _, pa = _random_poly(basis, seed=22)
        # 3 * 11 = 33 = 1 mod 32, so automorph(11) inverts automorph(3).
        assert pa.automorph(3).automorph(11) == pa

    def test_automorphism_is_additive(self, basis):
        _, pa = _random_poly(basis, seed=23)
        _, pb = _random_poly(basis, seed=24)
        assert (pa + pb).automorph(5) == pa.automorph(5) + pb.automorph(5)

    def test_automorphism_is_multiplicative(self, basis):
        _, pa = _random_poly(basis, seed=25, bound=50)
        _, pb = _random_poly(basis, seed=26, bound=50)
        ea, eb = pa.to_eval(), pb.to_eval()
        assert (ea * eb).automorph(7) == ea.automorph(7) * eb.automorph(7)
