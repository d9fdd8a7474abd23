"""The int64 kernels' modulus bound and pointwise product.

Every kernel in this package works on residues of NTT-friendly primes
``q < 2**30``: a product of two residues is ``< 2**60`` and fits a
signed 64-bit word, so :func:`mul_mod` is a plain int64 multiply and an
exact ``np.remainder``, and the float64 products of
:mod:`repro.kernels.fourstep` stay below ``2**53``.  Both sides of the
oracle contract only ever materialise canonical values in ``[0, q)``.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

__all__ = ["FAST_MODULUS_BOUND", "moduli_fit", "mul_mod"]

#: Largest limb modulus (exclusive) the int64 kernels accept.  Products of
#: residues below this bound stay under ``2**60`` and never overflow.
FAST_MODULUS_BOUND = 1 << 30


def moduli_fit(moduli: Sequence[int]) -> bool:
    """True when every modulus is inside the int64 fast-path bound."""
    return all(1 < int(q) < FAST_MODULUS_BOUND for q in moduli)


def mul_mod(a: np.ndarray, b: np.ndarray, q: np.ndarray) -> np.ndarray:
    """Pointwise ``a * b mod q`` for two data vectors (no precomputation)."""
    return np.remainder(a * b, q)
