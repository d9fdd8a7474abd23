"""The Garner CRT fast path of ``RnsPolynomial.to_int_coeffs``.

On int64 bases, columns whose mixed-radix digits above ``v_1`` are all
0 (or, centered, all ``q_i - 1``) are assembled in int64 and the rest go
through the Python-int weighted sum.  Both must equal
``numth.crt_reconstruct`` and the weighted sum that
``kernels.oracle_only()`` runs, on every limb count and on values at
each side of the int64 cases' edges.
"""

import random

import numpy as np
import pytest

from repro import kernels
from repro.kernels import mixed_radix_digits
from repro.numth.crt import crt_reconstruct
from repro.numth.modular import centered_mod
from repro.ring import RnsBasis, RnsPolynomial

DEGREE = 64
MAX_LIMBS = 6


@pytest.fixture(scope="module")
def full_basis():
    return RnsBasis.generate(DEGREE, 29, MAX_LIMBS)


def edge_values(basis):
    """0, ±1, ±2**40, ±(q0 q1 / 2 ± 1), ±q0 q1, ±2**60, ±Q/2 and neighbours."""
    q0q1 = basis.moduli[0] * (basis.moduli[1] if len(basis) > 1 else 1)
    half = basis.modulus // 2
    magnitudes = [
        0, 1, 2**40, q0q1 // 2 - 1, q0q1 // 2, q0q1 // 2 + 1,
        q0q1 - 1, q0q1, q0q1 + 1, 2**60, half - 1, half, half + 1,
    ]
    return [sign * m for m in magnitudes for sign in (1, -1)]


def mixed_coeffs(basis, seed):
    """Edge values, small and large random values, interleaved."""
    rng = random.Random(seed)
    values = edge_values(basis)
    while len(values) < DEGREE:
        bound = rng.choice([2**20, 2**45, basis.modulus])
        values.append(rng.randrange(-bound, bound))
    values = values[:DEGREE]
    rng.shuffle(values)
    return values


def reference(poly, centered):
    total = poly.basis.modulus
    columns = zip(*poly.limbs.tolist())
    want = [crt_reconstruct(list(col), list(poly.basis.moduli)) for col in columns]
    return [centered_mod(v, total) for v in want] if centered else want


@pytest.mark.parametrize("centered", [True, False], ids=["centered", "uncentered"])
@pytest.mark.parametrize("limbs", range(1, MAX_LIMBS + 1))
def test_garner_matches_crt_reconstruct_and_the_weighted_sum(
    full_basis, limbs, centered
):
    basis = full_basis.prefix(limbs)
    assert basis.dtype == np.int64
    for seed in (1, 2):
        poly = RnsPolynomial.from_int_coeffs(mixed_coeffs(basis, seed), basis)
        got = poly.to_int_coeffs(centered=centered)
        assert all(type(c) is int for c in got)
        assert got == reference(poly, centered)
        with kernels.oracle_only():
            assert poly.to_int_coeffs(centered=centered) == got


def test_digits_rebuild_every_column(full_basis):
    basis = full_basis
    poly = RnsPolynomial.from_int_coeffs(mixed_coeffs(basis, 3), basis)
    digits = mixed_radix_digits(poly.limbs, basis.moduli, basis.garner_inverses)
    assert digits.dtype == np.int64
    assert np.all((0 <= digits) & (digits < basis.q_col))
    for column, want in zip(digits.T.tolist(), reference(poly, centered=False)):
        value, radix = 0, 1
        for digit, q in zip(column, basis.moduli):
            value += digit * radix
            radix *= q
        assert value == want
