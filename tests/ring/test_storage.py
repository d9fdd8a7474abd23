"""The ``(limbs, N)`` ndarray storage of RnsPolynomial.

Every operation is checked against a pure-Python-int reference at
``N = 16`` for an int64 basis (30-bit moduli) and an object basis
(40-bit moduli), on boundary residues (0, 1, q-1) and operands far wider
than a machine word.
"""

import random

import numpy as np
import pytest

from repro import kernels
from repro.numth.crt import crt_reconstruct
from repro.numth.modular import centered_mod
from repro.ring import ProductSum, Representation, RnsBasis, RnsPolynomial, polynomial

DEGREE = 16
WIDE = 2**600


@pytest.fixture(scope="module", params=[30, 40], ids=["int64", "object"])
def basis(request):
    return RnsBasis.generate(DEGREE, request.param, 3)


def _rows(basis, seed, boundary):
    """Per limb: ``boundary(q)`` first, random residues after."""
    rng = random.Random(seed)
    rows = []
    for q in basis.moduli:
        head = boundary(q)
        rows.append(head + [rng.randrange(q) for _ in range(DEGREE - len(head))])
    return rows


def _pair(basis, form=Representation.EVAL):
    """Two elements whose first 9 slots pair every boundary residue."""
    a = _rows(basis, 1, lambda q: [0, 0, 0, 1, 1, 1, q - 1, q - 1, q - 1])
    b = _rows(basis, 2, lambda q: [0, 1, q - 1] * 3)
    return RnsPolynomial(basis, a, form), RnsPolynomial(basis, b, form)


def _apply(rows_a, rows_b, moduli, fn):
    return [
        [fn(x, y) % q for x, y in zip(ra, rb)]
        for ra, rb, q in zip(rows_a, rows_b, moduli)
    ]


class TestLayout:
    def test_dtype_follows_the_moduli(self, basis):
        a, _ = _pair(basis)
        fits = max(basis.moduli) < 2**30
        assert basis.dtype == np.dtype(np.int64 if fits else object)
        assert a.limbs.dtype == basis.dtype
        assert a.limbs.shape == (len(basis), DEGREE)

    def test_results_are_fresh_c_contiguous_matrices(self, basis):
        a, b = _pair(basis)
        for out in (a + b, a * b, -a, a.automorph(3), a.to_coeff(), a.clone()):
            assert out.limbs.dtype == basis.dtype
            assert out.limbs.flags.c_contiguous
            assert not np.shares_memory(out.limbs, a.limbs)

    def test_constructor_checks_shape_and_canonicalizes(self, basis):
        q = basis.moduli
        rows = [[-1, qi, qi + 5, -(2**100)] + [0] * (DEGREE - 4) for qi in q]
        poly = RnsPolynomial(basis, rows, Representation.COEFF)
        assert poly.limbs.tolist() == [[c % qi for c in row] for row, qi in zip(rows, q)]
        with pytest.raises(ValueError):
            RnsPolynomial(basis, rows[:-1], Representation.COEFF)
        with pytest.raises(ValueError):
            RnsPolynomial(basis, [row[:-1] for row in rows], Representation.COEFF)


class TestPointwiseAgainstPythonInts:
    @pytest.mark.parametrize(
        "op, fn",
        [
            ("add", lambda x, y: x + y),
            ("sub", lambda x, y: x - y),
            ("mul", lambda x, y: x * y),
        ],
    )
    def test_binary_ops(self, basis, op, fn):
        a, b = _pair(basis)
        got = {"add": a + b, "sub": a - b, "mul": a * b}[op]
        want = _apply(a.limbs.tolist(), b.limbs.tolist(), basis.moduli, fn)
        assert got.limbs.tolist() == want

    def test_neg(self, basis):
        a, _ = _pair(basis)
        assert (-a).limbs.tolist() == [
            [-x % q for x in row] for row, q in zip(a.limbs.tolist(), basis.moduli)
        ]

    @pytest.mark.parametrize("scalar", [0, 1, -1, WIDE, -WIDE, WIDE + 1])
    def test_scalar_mul(self, basis, scalar):
        a, _ = _pair(basis)
        assert a.scalar_mul(scalar).limbs.tolist() == [
            [x * scalar % q for x in row]
            for row, q in zip(a.limbs.tolist(), basis.moduli)
        ]

    def test_limb_scalar_mul(self, basis):
        a, _ = _pair(basis)
        scalars = [WIDE, -WIDE, -1]
        assert a.limb_scalar_mul(scalars).limbs.tolist() == [
            [x * s % q for x in row]
            for row, s, q in zip(a.limbs.tolist(), scalars, basis.moduli)
        ]

    def test_from_int_coeffs_takes_wide_coefficients(self, basis):
        rng = random.Random(3)
        head = [2**100, -(2**100), 2**100 - 1, 1 - 2**100, 0, 1, -1]
        coeffs = head + [
            rng.randrange(-(2**100), 2**100) for _ in range(DEGREE - len(head))
        ]
        poly = RnsPolynomial.from_int_coeffs(coeffs, basis)
        assert poly.limbs.dtype == basis.dtype
        assert poly.limbs.tolist() == [[c % q for c in coeffs] for q in basis.moduli]


    @pytest.mark.parametrize("op", ["add", "sub"])
    def test_add_sub_equal_their_remainder_reference(self, basis, op):
        # Int64 sums and differences reduce without division; the oracle
        # path keeps np.remainder.  Both forms, every boundary pair.
        for form in Representation:
            a, b = _pair(basis, form)
            fast = a + b if op == "add" else a - b
            with kernels.oracle_only():
                reference = a + b if op == "add" else a - b
            assert fast == reference

    @pytest.mark.parametrize("scalar", [0, 1, -1, WIDE, -WIDE, WIDE + 1])
    def test_scalar_add(self, basis, scalar):
        a, _ = _pair(basis)
        assert a.scalar_add(scalar).limbs.tolist() == [
            [(x + scalar) % q for x in row]
            for row, q in zip(a.limbs.tolist(), basis.moduli)
        ]
        coeff, _ = _pair(basis, Representation.COEFF)
        assert coeff.scalar_add(scalar).limbs.tolist() == [
            [(row[0] + scalar) % q] + row[1:]
            for row, q in zip(coeff.limbs.tolist(), basis.moduli)
        ]
        assert coeff.scalar_add(scalar).to_eval() == coeff.to_eval().scalar_add(scalar)


class TestProductSum:
    """``ProductSum`` equals the eager ``acc + x * y`` it replaces, on the
    lazy path (int64) and under ``oracle_only()``."""

    @staticmethod
    def _terms(basis, count):
        """``count`` pairs whose first slots pair 0 and q - 1 every way."""
        pairs = []
        for k in range(count):
            x = _rows(basis, 2 * k, lambda q: [0, q - 1, q - 1])
            y = _rows(basis, 2 * k + 1, lambda q: [q - 1, 0, q - 1])
            pairs.append(tuple(
                RnsPolynomial(basis, rows, Representation.EVAL) for rows in (x, y)
            ))
        return pairs

    @pytest.mark.parametrize("count", [0, 1, 15, 16, 31])
    def test_equals_the_eager_expression(self, basis, count):
        terms = self._terms(basis, count)
        eager = RnsPolynomial.zero(basis)
        for x, y in terms:
            eager = eager + x * y
        def run():
            sums = ProductSum(basis)
            for x, y in terms:
                sums.add(x, y)
            return sums.result()

        fast = run()
        with kernels.oracle_only():
            reference = run()
        for got in (fast, reference):
            assert got == eager
            assert got.limbs.dtype == basis.dtype

    def test_operands_are_checked(self, basis):
        x, y = self._terms(basis, 1)[0]
        other = RnsBasis.generate(DEGREE, 30, 2)
        with pytest.raises(ValueError, match="different bases"):
            ProductSum(other).add(x, y)
        with pytest.raises(ValueError, match="evaluation form"):
            ProductSum(basis).add(x.to_coeff(), y.to_coeff())
        with pytest.raises(ValueError, match="different bases"):
            ProductSum(basis).add(x, RnsPolynomial.zero(other))


def _ref_monomial_mul(rows, moduli, exponent):
    """``x^exponent * f`` coefficient by coefficient, with ``x^N = -1``."""
    n = len(rows[0])
    out = []
    for row, q in zip(rows, moduli):
        new = [0] * n
        for j, a in enumerate(row):
            e = (j + exponent) % (2 * n)
            if e < n:
                new[e] = a % q
            else:
                new[e - n] = -a % q
        out.append(new)
    return out


class TestMonomialMul:
    @pytest.mark.parametrize("exponent", [*range(2 * DEGREE), -1, 5 * DEGREE + 3])
    def test_every_exponent_in_both_forms(self, basis, exponent):
        coeff, _ = _pair(basis, Representation.COEFF)
        shifted = coeff.monomial_mul(exponent)
        assert shifted.limbs.tolist() == _ref_monomial_mul(
            coeff.limbs.tolist(), basis.moduli, exponent
        )
        assert coeff.to_eval().monomial_mul(exponent) == shifted.to_eval()

    def test_oracle_only_gives_the_same_rows(self, basis, monkeypatch):
        evals, _ = _pair(basis)
        half = DEGREE // 2
        fast = evals.monomial_mul(half)
        # An empty row store, so the oracle transforms the monomial itself.
        monkeypatch.setattr(polynomial, "_MONOMIAL_ROWS", {})
        with kernels.oracle_only():
            assert evals.monomial_mul(half) == fast

    def test_x_half_squared_is_minus_one(self, basis):
        evals, _ = _pair(basis)
        half = DEGREE // 2
        assert evals.monomial_mul(half).monomial_mul(half) == -evals


def _ref_coeff_automorph(rows, moduli, t):
    n = len(rows[0])
    out = []
    for row, q in zip(rows, moduli):
        new = [0] * n
        for j, a in enumerate(row):
            e = j * t % (2 * n)
            if e < n:
                new[e] = (new[e] + a) % q
            else:
                new[e - n] = (new[e - n] - a) % q
        out.append(new)
    return out


def _ref_eval_automorph(rows, t):
    n = len(rows[0])
    # Slot k holds f(psi^{2k+1}); output slot k reads exponent (2k+1)t.
    slot_of_exp = {2 * k + 1: k for k in range(n)}
    source = [slot_of_exp[(2 * k + 1) * t % (2 * n)] for k in range(n)]
    return [[row[s] for s in source] for row in rows]


class TestAutomorph:
    @pytest.mark.parametrize("t", range(1, 2 * DEGREE, 2))
    def test_every_odd_index_in_both_forms(self, basis, t):
        coeff, _ = _pair(basis, Representation.COEFF)
        evals, _ = _pair(basis, Representation.EVAL)
        assert coeff.automorph(t).limbs.tolist() == _ref_coeff_automorph(
            coeff.limbs.tolist(), basis.moduli, t
        )
        assert evals.automorph(t).limbs.tolist() == _ref_eval_automorph(
            evals.limbs.tolist(), t
        )
        assert coeff.automorph(t).to_eval() == coeff.to_eval().automorph(t)


class TestCrt:
    @pytest.mark.parametrize("centered", [True, False])
    def test_matches_the_scalar_oracle_as_python_ints(self, basis, centered):
        poly, _ = _pair(basis, Representation.COEFF)
        got = poly.to_int_coeffs(centered=centered)
        assert all(type(c) is int for c in got)
        total = basis.modulus
        columns = zip(*poly.limbs.tolist())
        want = [crt_reconstruct(list(col), list(basis.moduli)) for col in columns]
        if centered:
            want = [centered_mod(v, total) for v in want]
        assert got == want
