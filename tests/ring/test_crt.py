"""The two-limb CRT fast path of ``RnsPolynomial.to_int_coeffs``.

On int64 bases each column is built from its first two limbs and
accepted when it matches every other limb; centered, its value minus
``q0 q1`` is tried too.  The rest go through the Python-int weighted
sum.  Both must equal ``numth.crt_reconstruct`` and the weighted sum
that ``kernels.oracle_only()`` runs, on every limb count and on values
at each side of the int64 cases' edges.
"""

import random

import numpy as np
import pytest

from repro import kernels
from repro.numth.crt import crt_reconstruct
from repro.numth.modular import centered_mod
from repro.ring import RnsBasis, RnsPolynomial
from repro.ring import polynomial

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


@pytest.fixture()
def weighted_columns(monkeypatch):
    """Count the columns that reach the weighted sum, kernels on."""
    seen = []
    original = polynomial._crt_weighted_sum

    def spy(rows, basis, centered):
        seen.append(rows.shape[1])
        return original(rows, basis, centered)

    monkeypatch.setattr(polynomial, "_crt_weighted_sum", spy)
    previous = kernels.set_enabled(True)
    yield seen
    kernels.set_enabled(previous)


@pytest.mark.parametrize("centered", [True, False], ids=["centered", "uncentered"])
@pytest.mark.parametrize("limbs", range(1, MAX_LIMBS + 1))
def test_two_limb_crt_matches_crt_reconstruct_and_the_weighted_sum(
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


@pytest.mark.parametrize("centered", [True, False], ids=["centered", "uncentered"])
@pytest.mark.parametrize("limbs", range(3, MAX_LIMBS + 1))
def test_only_columns_past_q0q1_take_the_weighted_sum(
    full_basis, limbs, centered, weighted_columns
):
    """Centered, ``[-q0 q1, q0 q1)`` stays in int64; uncentered ``[0, q0 q1)``."""
    basis = full_basis.prefix(limbs)
    q0q1 = basis.moduli[0] * basis.moduli[1]
    poly = RnsPolynomial.from_int_coeffs(mixed_coeffs(basis, 3), basis)
    values = reference(poly, centered)
    low = -q0q1 if centered else 0
    wide = sum(not low <= v < q0q1 for v in values)
    assert 0 < wide < DEGREE
    assert poly.to_int_coeffs(centered=centered) == values
    assert weighted_columns == [wide]


@pytest.mark.parametrize("limbs", [1, 2])
@pytest.mark.parametrize("centered", [True, False], ids=["centered", "uncentered"])
def test_one_and_two_limbs_never_take_the_weighted_sum(
    full_basis, limbs, centered, weighted_columns
):
    """Below three limbs ``Q < 2**60``: every column is the two-limb value."""
    basis = full_basis.prefix(limbs)
    total = basis.modulus
    half = total // 2
    values = [0, 1, -1, half, -half, half - 1, 1 - half, total - 1, 1 - total]
    values += list(range(-(DEGREE - len(values)) // 2, (DEGREE - len(values)) // 2))
    poly = RnsPolynomial.from_int_coeffs(values, basis)
    got = poly.to_int_coeffs(centered=centered)
    assert got == reference(poly, centered)
    if centered:
        assert max(got) == half and min(got) == -half
    else:
        assert max(got) == total - 1 and min(got) == 0
    assert weighted_columns == []


def test_negative_column_is_accepted_as_low_minus_q0q1(full_basis, weighted_columns):
    """A centered ``x`` in ``[-q0 q1, 0)`` matches ``low - q0 q1``, not ``low``."""
    basis = full_basis
    q0q1 = basis.moduli[0] * basis.moduli[1]
    values = [-q0q1, -1, 1 - q0q1, -(q0q1 // 2)] + [-7] * (DEGREE - 4)
    poly = RnsPolynomial.from_int_coeffs(values, basis)
    assert poly.to_int_coeffs() == values
    assert weighted_columns == []
    # Uncentered, the same columns are Q + x: past q0 q1, so all wide.
    assert poly.to_int_coeffs(centered=False) == [basis.modulus + v for v in values]
    assert weighted_columns == [DEGREE]
