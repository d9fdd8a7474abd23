"""Tests for the int64 kernels' modulus bound and pointwise product."""

import numpy as np
from hypothesis import given, settings, strategies as st

from repro.kernels import FAST_MODULUS_BOUND, moduli_fit, mul_mod

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
