"""Tests for the int64 kernels' modulus bound and pointwise arithmetic."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.kernels import FAST_MODULUS_BOUND, add_mod, moduli_fit, mul_mod, sub_mod

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
