"""The int64 kernels' modulus bound and pointwise arithmetic.

Every kernel in this package works on residues of NTT-friendly primes
``q < 2**30``: a product of two residues is ``< 2**60`` and fits a
signed 64-bit word, so :func:`mul_mod` is a plain int64 multiply and an
exact ``np.remainder``, and the float64 products of
:mod:`repro.kernels.fourstep` stay below ``2**53``.  A sum or difference
of two residues lies in ``(-q, 2q)``, so :func:`add_mod` and
:func:`sub_mod` need no division: one wrapping uint64 add or subtract
of ``q`` and a ``min`` pick the canonical value.  Both sides of the
oracle contract only ever materialise canonical values in ``[0, q)``.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

__all__ = ["FAST_MODULUS_BOUND", "add_mod", "moduli_fit", "mul_mod", "sub_mod"]

#: Largest limb modulus (exclusive) the int64 kernels accept.  Products of
#: residues below this bound stay under ``2**60`` and never overflow.
FAST_MODULUS_BOUND = 1 << 30


def moduli_fit(moduli: Sequence[int]) -> bool:
    """True when every modulus is inside the int64 fast-path bound."""
    return all(1 < int(q) < FAST_MODULUS_BOUND for q in moduli)


def mul_mod(a: np.ndarray, b: np.ndarray, q: np.ndarray) -> np.ndarray:
    """Pointwise ``a * b mod q`` for two data vectors (no precomputation)."""
    return np.remainder(a * b, q)


def add_mod(a: np.ndarray, b: np.ndarray, q: np.ndarray) -> np.ndarray:
    """Pointwise ``(a + b) mod q`` for canonical int64 residues.

    ``b`` and ``q`` may be columns that broadcast against ``a``.  The sum
    ``s`` is in ``[0, 2q)``; over uint64, ``s - q`` wraps above ``2**63``
    exactly when ``s < q``, so ``min(s, s - q)`` is canonical.  Returns a
    fresh int64 array.
    """
    out = np.add(a, b)
    u = out.view(np.uint64)
    np.minimum(u, u - q.view(np.uint64), out=u)
    return out


def sub_mod(a: np.ndarray, b: np.ndarray, q: np.ndarray) -> np.ndarray:
    """Pointwise ``(a - b) mod q`` for canonical int64 residues.

    The difference ``d`` is in ``(-q, q)``; over uint64 a negative ``d``
    wraps above ``2**63`` and ``d + q`` does not, so ``min(d, d + q)`` is
    canonical (the ``min`` the NTT's last step takes).  Returns a fresh
    int64 array.
    """
    out = np.subtract(a, b)
    u = out.view(np.uint64)
    np.minimum(u, u + q.view(np.uint64), out=u)
    return out
