"""The int64 kernels' modulus bound and pointwise arithmetic.

Every kernel in this package works on residues of NTT-friendly primes
``q < 2**30``: a product of two residues is ``< 2**60`` and fits a
signed 64-bit word, so :func:`mul_mod` is a plain int64 multiply and an
exact ``np.remainder``, and the float64 products of
:mod:`repro.kernels.fourstep` stay below ``2**53``.  A sum or difference
of two residues lies in ``(-q, 2q)``, so :func:`add_mod` and
:func:`sub_mod` need no division: one wrapping uint64 add or subtract
of ``q`` and a ``min`` pick the canonical value.  :func:`lift_mod`
lifts a signed vector inside ``(-q, q)`` the same way.  Both sides of
the oracle contract only ever materialise canonical values in
``[0, q)``.

A sum of products needs no division per term either: :class:`MulAcc`
adds uint64 products and reduces once per :data:`LAZY_PRODUCTS` terms.

NumPy buffers a ufunc's operands through a scratch buffer of
``np.getbufsize()`` elements (8,192 by default) whenever it cannot run
its inner loop on them in place, and a pass that broadcasts an
``(l, 1)`` modulus column over rows shorter than that buffer is such a
pass: at ``16 x 2048`` it runs ≈3x slower than the same pass over a
scalar.  :func:`limb_passes` sets the buffer to one row for the length
of a batch-level call; nothing sets it at import.
"""

from __future__ import annotations

from contextlib import contextmanager
from typing import Dict, Iterator, Sequence

import numpy as np

__all__ = [
    "FAST_MODULUS_BOUND", "LAZY_PRODUCTS", "MulAcc", "add_mod", "lift_mod",
    "limb_passes", "moduli_fit", "mul_mod", "sub_mod",
]

#: Largest limb modulus (exclusive) the int64 kernels accept.  Products of
#: residues below this bound stay under ``2**60`` and never overflow.
FAST_MODULUS_BOUND = 1 << 30

#: Residue products one uint64 sum takes between reductions.  Products of
#: residues below ``2**30`` are at most ``(2**30 - 1)**2``, and a reduced
#: residue plus 15 of them stays below ``16 * (2**30 - 1)**2 < 2**64``.
LAZY_PRODUCTS = 15

#: Smallest ring degree :func:`limb_passes` sets the buffer to; NumPy
#: wants a buffer that is a multiple of 16 elements.
_MIN_BUFFER = 16


@contextmanager
def limb_passes(degree: int) -> Iterator[None]:
    """Scope NumPy's ufunc buffer to one ``degree``-element row.

    Within the block the buffer is ``degree`` elements when
    ``16 <= degree`` and ``degree`` is below the caller's buffer; it is
    the caller's otherwise, and the caller's again on exit, also when
    the block raises.  Passes over ``(l, degree)`` residue matrices
    against ``(l, 1)`` modulus columns then run at the speed of a pass
    against a scalar.  Enter it once per batch-level call, not per limb:
    a set-and-restore pair costs a few microseconds, and a nested scope
    finds the buffer already set and leaves it alone.  The setting is
    context-local in NumPy 2, so it never leaks into other threads.
    """
    previous = np.getbufsize()
    if not _MIN_BUFFER <= degree < previous:
        yield
        return
    np.setbufsize(degree)
    try:
        yield
    finally:
        np.setbufsize(previous)


def moduli_fit(moduli: Sequence[int]) -> bool:
    """True when every modulus is inside the int64 fast-path bound."""
    return all(1 < int(q) < FAST_MODULUS_BOUND for q in moduli)


def mul_mod(a: np.ndarray, b: np.ndarray, q: np.ndarray) -> np.ndarray:
    """Pointwise ``a * b mod q`` for two data vectors (no precomputation).

    The product is reduced in place, one fresh array rather than two, so
    ``q`` must broadcast to the product's shape (a column or a scalar).
    Exact for any integer dtype, Python-int ``object`` arrays included.
    """
    out = np.multiply(a, b)
    return np.remainder(out, q, out=out)


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


def lift_mod(values: np.ndarray, q: np.ndarray) -> np.ndarray:
    """``values mod q`` for an int64 vector with entries in ``(-q, q)``.

    ``q`` is an ``(l, 1)`` column; every entry must lie inside
    ``(-q_i, q_i)`` for every row.  Over uint64 a negative ``v`` wraps
    above ``2**63`` and ``v + q`` wraps back into ``(0, q)``, while a
    non-negative ``v`` stays below ``v + q``, so ``min(v, v + q)`` is
    canonical: one broadcast add into the fresh ``(l, N)`` int64 result
    and one ``min`` in place against the vector.
    """
    u = values.view(np.uint64)
    out = np.add(u, q.view(np.uint64))
    np.minimum(out, u, out=out)
    return out.view(np.int64)


#: One product scratch per ring degree, shared by every :class:`MulAcc`
#: and grown to the most rows asked for.  Keeping it resident spares
#: each sum a fresh matrix, whose pages fault in when first written.
_PRODUCTS: Dict[int, np.ndarray] = {}


def _product_rows(rows: int, degree: int) -> np.ndarray:
    """A ``(rows, degree)`` uint64 view of the degree's product scratch."""
    scratch = _PRODUCTS.get(degree)
    if scratch is None or len(scratch) < rows:
        scratch = _PRODUCTS[degree] = np.empty((rows, degree), dtype=np.uint64)
    return scratch[:rows]


def _unsigned(rows: np.ndarray) -> np.ndarray:
    """Canonical residues as unsigned words, without a copy.

    Canonical int64 residues are non-negative, so their uint64 view holds
    the same values; unsigned rows (4-byte key words) are returned as held.
    """
    return rows.view(np.uint64) if rows.dtype == np.int64 else rows


class MulAcc:
    """``out = sum_k a_k * b_k mod q`` over residue matrices, reduced lazily.

    ``out`` is an ``(l, N)`` int64 matrix that the sum overwrites and
    ``q`` the ``(l, 1)`` moduli column.  Every term is a product of two
    canonical residues below ``2**30``, taken in uint64, where it stays
    below ``2**60``: the first is written straight into ``out``, each
    later one is added to it, and the sum is reduced once per
    :data:`LAZY_PRODUCTS` terms and once by :meth:`finish`, which
    leaves ``out`` canonical (all zero after no terms).  The eager
    reference reduces every product and every partial sum; both give
    the same residues, since each is the sum's canonical residue.

    Each product goes through one scratch per ring degree, kept for the
    process: no two sums of one degree may add concurrently in threads
    (the repo's parallelism is process-based).
    """

    def __init__(self, out: np.ndarray, q: np.ndarray):
        self._out = out
        self._sum = _unsigned(out)
        self._q = _unsigned(q)
        self._terms = 0

    def add(self, a: np.ndarray, *b: np.ndarray) -> None:
        """Add ``a * b``, where ``b``'s row blocks stack to ``a``'s shape.

        ``a`` holds canonical int64 residues, and each block of ``b``
        canonical int64 residues or 4-byte words; the blocks are read
        in place (a key digit's live rows are two ranges of its store).
        """
        a = _unsigned(a)
        out = self._sum if self._terms == 0 else _product_rows(*self._sum.shape)
        row = 0
        for block in b:
            end = row + len(block)
            np.multiply(a[row:end], _unsigned(block), out=out[row:end])
            row = end
        if self._terms:
            self._sum += out
        self._terms += 1
        if self._terms % LAZY_PRODUCTS == 0:
            self._reduce()

    def finish(self) -> np.ndarray:
        """Reduce the sum into ``out`` (canonical) and return ``out``."""
        if self._terms == 0:
            self._sum.fill(0)
        elif self._terms % LAZY_PRODUCTS:
            self._reduce()
        return self._out

    def _reduce(self) -> None:
        with limb_passes(self._sum.shape[-1]):
            np.remainder(self._sum, self._q, out=self._sum)
