"""Tests for the int64 kernels' modulus bound and pointwise arithmetic."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.kernels import (
    FAST_MODULUS_BOUND,
    LAZY_PRODUCTS,
    MulAcc,
    add_mod,
    lift_mod,
    moduli_fit,
    mul_mod,
    sub_mod,
)
from repro.numth import find_ntt_primes
from repro.ring import Representation, RnsBasis, RnsPolynomial

# Odd moduli spanning the full accepted range, including the boundary.
_modulus = st.integers(3, FAST_MODULUS_BOUND - 1).map(lambda q: q | 1)


class TestModuliFit:
    def test_accepts_below_bound(self):
        assert moduli_fit([3, 5, FAST_MODULUS_BOUND - 1])

    def test_rejects_at_bound(self):
        assert not moduli_fit([FAST_MODULUS_BOUND])

    def test_rejects_trivial_modulus(self):
        assert not moduli_fit([1])


class TestElementwiseOps:
    @settings(max_examples=100)
    @given(data=st.data(), q=_modulus)
    def test_mul_matches_python(self, data, q):
        a = data.draw(st.lists(st.integers(0, q - 1), min_size=1, max_size=8))
        b = data.draw(
            st.lists(
                st.integers(0, q - 1), min_size=len(a), max_size=len(a)
            )
        )
        q_arr = np.asarray([q], dtype=np.int64)[:, np.newaxis]
        a_arr = np.asarray([a], dtype=np.int64)
        b_arr = np.asarray([b], dtype=np.int64)
        assert mul_mod(a_arr, b_arr, q_arr).tolist() == [
            [x * y % q for x, y in zip(a, b)]
        ]


# The smallest odd modulus, one just above a power of two, an NTT prime
# below 2**29 and the largest odd value the bound admits.
_MODULI = [3, (1 << 20) + 7, (1 << 29) - 3 * 4096 + 1, FAST_MODULUS_BOUND - 1]


def _residues(q, size, seed):
    """Random residues modulo each of ``q`` (a column), 0 and q - 1 first."""
    rows = np.random.default_rng(seed).integers(0, q, size=(len(q), size))
    rows[:, :2] = np.concatenate([np.zeros_like(q), q - 1], axis=1)
    return rows


class TestDivisionFreeAddSub:
    """``add_mod``/``sub_mod`` equal ``np.remainder`` of the plain sum or
    difference, whose reference they replace on int64 limbs."""

    @pytest.mark.parametrize("op, kernel", [(np.add, add_mod), (np.subtract, sub_mod)])
    def test_match_remainder_on_random_residues(self, op, kernel):
        q = np.array(_MODULI, dtype=np.int64)[:, np.newaxis]
        a, b = _residues(q, 4096, 1), _residues(q, 4096, 2)
        got = kernel(a, b, q)
        assert got.dtype == np.int64
        assert np.array_equal(got, np.remainder(op(a, b), q))

    @pytest.mark.parametrize("op, kernel", [(np.add, add_mod), (np.subtract, sub_mod)])
    def test_every_boundary_pair(self, op, kernel):
        for modulus in _MODULI:
            edges = [0, 1, modulus // 2, modulus - 2, modulus - 1]
            pairs = [(x, y) for x in edges for y in edges]
            a = np.array([[x for x, _ in pairs]], dtype=np.int64)
            b = np.array([[y for _, y in pairs]], dtype=np.int64)
            got = kernel(a, b, np.array([[modulus]], dtype=np.int64))
            assert got.tolist() == [[op(x, y) % modulus for x, y in pairs]]

    def test_add_broadcasts_a_column_and_leaves_inputs(self):
        q = np.array(_MODULI, dtype=np.int64)[:, np.newaxis]
        a = _residues(q, 64, 3)
        column = q - 1
        before = a.copy()
        got = add_mod(a, column, q)
        assert np.array_equal(got, np.remainder(a + column, q))
        assert np.array_equal(a, before)
        assert not np.shares_memory(got, a)


class TestLift:
    """``lift_mod`` equals ``np.remainder`` of a vector inside ``(-q, q)``."""

    def test_every_edge_against_every_row(self):
        q = np.array(_MODULI, dtype=np.int64)[:, np.newaxis]
        bound = min(_MODULI)
        values = np.array([1 - bound, -1, 0, 1, bound - 1], dtype=np.int64)
        got = lift_mod(values, q)
        assert got.dtype == np.int64 and got.shape == (len(_MODULI), len(values))
        assert np.array_equal(got, np.remainder(values, q))

    @settings(max_examples=100)
    @given(data=st.data(), q=_modulus)
    def test_matches_python(self, data, q):
        values = data.draw(st.lists(st.integers(1 - q, q - 1), min_size=1, max_size=16))
        got = lift_mod(np.array(values, dtype=np.int64), np.array([[q], [q + 2]]))
        assert got.tolist() == [[v % q for v in values], [v % (q + 2) for v in values]]

    def test_leaves_the_vector_and_returns_a_fresh_matrix(self):
        q = np.array(_MODULI, dtype=np.int64)[:, np.newaxis]
        values = np.array([-2, -1, 0, 1, 2], dtype=np.int64)
        before = values.copy()
        got = lift_mod(values, q)
        assert np.array_equal(values, before)
        assert not np.shares_memory(got, values)
        assert got.flags.c_contiguous and got.flags.writeable


class TestMulAcc:
    """The lazily reduced multiply-accumulate equals the eager ring
    expression ``acc + x * y`` it replaces, across reduction points."""

    DEGREE = 64

    @pytest.fixture(scope="class")
    def basis(self):
        # The largest NTT primes below 2**30: 17 products of (q - 1)**2
        # overflow uint64, so a missing mid-sum reduction shows.
        basis = RnsBasis(self.DEGREE, find_ntt_primes(30, self.DEGREE, 4))
        assert 17 * (min(basis.moduli) - 1) ** 2 >= 2**64
        return basis

    def _terms(self, basis, count, seed):
        """``count`` (x, y) residue pairs; 0 and q - 1 planted in each."""
        rng = np.random.default_rng(seed)
        q = basis.q_col
        pairs = []
        for _ in range(count):
            x = rng.integers(0, q, size=(len(basis), self.DEGREE))
            y = rng.integers(0, q, size=(len(basis), self.DEGREE))
            x[:, :3] = np.concatenate([q - 1, q - 1, np.zeros_like(q)], axis=1)
            y[:, :3] = np.concatenate([q - 1, np.zeros_like(q), q - 1], axis=1)
            pairs.append((x, y))
        return pairs

    def _eager(self, basis, pairs):
        acc = RnsPolynomial.zero(basis)
        for x, y in pairs:
            acc = acc + RnsPolynomial(basis, x, Representation.EVAL) * RnsPolynomial(
                basis, y, Representation.EVAL
            )
        return acc.limbs

    @pytest.mark.parametrize("count", [1, 15, 16, 30, 31])
    @pytest.mark.parametrize("words", ["int64", "uint32"])
    def test_equals_the_eager_expression(self, basis, count, words):
        pairs = self._terms(basis, count, seed=count)
        out = np.empty((len(basis), self.DEGREE), dtype=np.int64)
        mac = MulAcc(out, basis.q_col)
        for x, y in pairs:
            mac.add(x, y.astype(words))
        assert mac.finish() is out
        assert np.array_equal(out, self._eager(basis, pairs))

    @pytest.mark.parametrize("count", [16, 31])
    def test_all_q_minus_one_sums_pass_2_to_the_63(self, basis, count):
        # Every product is (q - 1)**2: the sum passes 2**63 before each
        # reduction, and would wrap past 2**64 without one per 15 terms.
        q = basis.q_col
        top = np.broadcast_to(q - 1, (len(basis), self.DEGREE))
        out = np.empty(top.shape, dtype=np.int64)
        mac = MulAcc(out, q)
        for _ in range(count):
            mac.add(top, top.astype(np.uint32))
        mac.finish()
        want = [count * (m - 1) ** 2 % m for m in basis.moduli]
        assert out.tolist() == [[w] * self.DEGREE for w in want]
        assert LAZY_PRODUCTS * (min(basis.moduli) - 1) ** 2 > 2**63

    def test_row_blocks_stack_to_the_operand(self, basis):
        # A key digit's live rows are read as two blocks of its store.
        pairs = self._terms(basis, 3, seed=7)
        out = np.empty((len(basis), self.DEGREE), dtype=np.int64)
        mac = MulAcc(out, basis.q_col)
        for x, y in pairs:
            words = y.astype(np.uint32)
            mac.add(x, words[:1], words[1:])
        mac.finish()
        assert np.array_equal(out, self._eager(basis, pairs))

    def test_no_terms_is_zero(self, basis):
        out = np.full((len(basis), self.DEGREE), 5, dtype=np.int64)
        assert not MulAcc(out, basis.q_col).finish().any()

    def test_operands_are_left_as_they_were(self, basis):
        pairs = self._terms(basis, 2, seed=3)
        before = [(x.copy(), y.copy()) for x, y in pairs]
        mac = MulAcc(np.empty_like(pairs[0][0]), basis.q_col)
        for x, y in pairs:
            mac.add(x, y)
        mac.finish()
        for (x, y), (x0, y0) in zip(pairs, before):
            assert np.array_equal(x, x0) and np.array_equal(y, y0)
