"""Four-step negacyclic NTT as exact float64 matrix products.

This module is the transform behind :class:`repro.kernels.ntt.BatchNttKernel`
and the one file of ``kernels/`` allowed float arithmetic
(``FLOAT_KERNEL_FILE`` in ``tests/test_invariants.py``).  Every float it
holds is an integer below ``2**53``, so BLAS computes every product
exactly, and the outputs equal the oracle
:class:`repro.numth.ntt.NttContext` bit for bit.

**Factorisation.**  With ``N = n1 * n2``, ``n1 = 2**floor(log2(N) / 2)``
and ``n1 <= n2 <= 256`` (so ``N <= 2**16``), the forward transform
``X[k] = sum_i x[i] psi^i omega^(i k)`` splits along ``i = i1 + n1 i2``
and ``k = k2 + n2 k1``:

    X[k2 + n2 k1] = sum_i1 B[k1, i1] * T[k2, i1] * sum_i2 A[k2, i2] x[i1 + n1 i2]

with ``A[k2, i2] = psi^(n1 i2 (2 k2 + 1))`` (an ``n2``-point DFT with the
``psi^(n1 i2)`` twist in its columns), the twiddle
``T[k2, i1] = psi^(i1 (2 k2 + 1))`` (the rest of the twist), and
``B[k1, i1] = omega^(n2 i1 k1)``.  Viewed as an ``(n2, n1)`` matrix the
input is in natural order, and the result ``B @ (T * (A @ x)).T`` is the
``(n1, n2)`` matrix of ``X`` in natural order, so no permutation pass
exists.  The inverse has the same shape: ``A = omega^(-n1 j2 m2)``,
``T = psi^(-m2 (2 j1 + 1))`` and ``B = psi^(-n2 m1 (2 j1 + 1)) / N``
carry the ``psi^(-m) / N`` untwist.  Every table entry is copied from
the oracle's ``psi`` powers (never re-derived) and reduced to
``[0, q)`` with exact integers before it is stored.

**Storage.**  ``A`` is stored *centred*, ``|a| <= (q - 1) / 2``.  ``T``
and ``B`` are stored as 15-bit halves ``h, l`` in ``[0, 2**15)`` of the
canonical entry ``h * 2**15 + l``.  The data entering ``A`` is split the
same way (``x >> 15`` and ``x & 0x7FFF``, for any ``0 <= x < 2**30``).
So every product has one operand in ``[0, 2**15)`` and the other at
most ``2**29 + 4`` in magnitude, and an inner dimension of at most 256.
``T``'s halves are held in float32, which represents every integer below
``2**24`` exactly, and the twiddle multiply promotes them to float64
before it multiplies, so its products are the float64 products of the
proof below and the proof is unchanged; that halves ``T``'s share of a
table set.  ``A`` and ``B`` stay float64: they enter the matrix products,
where a float32 operand would be cast back to float64 on every call.

**Reduction.**  ``red(v) = v - rint(v * fl(1/q)) * q``.  Every ``v``
reduced below is an integer with ``|v| < 2**53`` and ``|v| / q < 2**23``.
``fl(v * fl(1/q))`` is within ``|v / q| * 2**-51.9 < 2**-28`` of ``v / q``,
so the rounded quotient ``f`` is within ``1/2 + 2**-28`` of it.  Then
``|f * q| < |v| + q < 2**53``, so the product and the difference are
exact, and ``|red(v)| <= R = q * (1/2 + 2**-28)``.  ``R < q`` and
``R < 2**29 + 4``, so a single ``+q`` where negative makes the final
output canonical.

**The bound, for any q < 2**30 and any table, n <= 256.**  With
``(2**15 - 1) * (2**29 + 4) < 2**44``, ``n * (2**15 - 1) * R < 2**52``.

1. ``P = A @ x_hi`` and ``A @ x_lo``: terms ``|a * h| < 2**29 * 2**15``,
   so ``|P| < 2**52`` and ``|P| / q < 2**22``.
2. Combine: ``|red(P_hi) * 2**15 + P_lo| < R * 2**15 + 2**52 < 2**53``
   (and ``/ q < 2**23``).  This is the step a canonical ``A`` breaks at
   ``n = 256``: there ``256 * (2**15 - 1) * (q - 1) + q * 2**15``
   reaches ``2**53.005``.  Centring ``A`` halves the products, and the
   symmetric reduction keeps every later operand below ``R``.
3. Twiddle: ``y = red(...)``, so ``|y * t_h|, |y * t_l| < 2**44``, and
   the combine ``red(y * t_h) * 2**15 + y * t_l`` stays below ``2**46``.
4. ``S = B_hi @ z`` and ``B_lo @ z`` with ``|z| <= R``: ``|S| < 2**52`` and
   ``|S| / q < 2**22``; its combine is bounded as in step 2.
5. Every ``f * q`` term is below ``2**53`` by the reduction bound, and
   scaling by ``2**15`` is exact.

Inside BLAS every term is an integer of magnitude below ``2**44`` and
every partial sum is a sum of a subset of the terms, so its magnitude is
below ``2**52`` whatever order BLAS adds in, with or without FMA and on
any number of threads.  No intermediate is ever rounded.

**One table set per (N, q)**, in a process-wide :class:`DegreeTables`
per degree (:func:`tables_for`).  A kernel's new moduli get one new
chunk (never a grown array, which would hold old and new tables at
once), filled one modulus at a time from an oracle plan built for that
modulus alone and dropped once its powers are copied, so at most one
plan is alive during a fill and none after it.  The kernel keeps only
``(chunk, row)`` positions and runs in blocks of at most
:data:`BLOCK_ELEMENTS` elements, each a contiguous row range of one
chunk, through one scratch set per degree.  **Thread contract:** no two
kernels of one degree may run concurrently in threads; the repo's
parallelism is process-based.
"""

from __future__ import annotations

from typing import Dict, List, Sequence, Tuple

import numpy as np

from repro.numth.ntt import NttContext

__all__ = [
    "BLOCK_ELEMENTS", "MAX_DEGREE", "DegreeTables", "centred",
    "data_split_product", "halves", "matrix_split_product", "tables_for",
]

#: Elements (limbs x N) per transform block: 16 limbs at N = 2**11.
BLOCK_ELEMENTS = 1 << 15

#: Two levels of at most 256 points: the bound's inner dimension.
MAX_DEGREE = 256 * 256

_HALF = 15
_LOW = (1 << _HALF) - 1
_SCALE = float(1 << _HALF)

Array = np.ndarray
#: Limbs ``[lo, hi)`` of a kernel, at rows from ``start`` of one chunk.
Block = Tuple[int, int, "_Chunk", int]


def centred(values: Array, q: int) -> Array:
    """Canonical residues as floats in ``[-(q - 1) / 2, (q - 1) / 2]``."""
    return np.where(values > q // 2, values - q, values).astype(np.float64)


def halves(values: Array) -> Tuple[Array, Array]:
    """The 15-bit halves ``(v >> 15, v & 0x7FFF)`` of ``0 <= v < 2**30``."""
    return (
        (values >> _HALF).astype(np.float64),
        (values & _LOW).astype(np.float64),
    )


def _reduce(v: Array, t: Array, q: Array, qinv: Array) -> None:
    """``v <- v - rint(v / q) * q`` in place; ``t`` is scratch of ``v``'s shape."""
    np.multiply(v, qinv, out=t)
    np.rint(t, out=t)
    t *= q
    v -= t


def _fold(hi: Array, lo: Array, t: Array, q: Array, qinv: Array) -> Array:
    """``red(red(hi) * 2**15 + lo)`` into ``hi``, which it returns."""
    _reduce(hi, t, q, qinv)
    hi *= _SCALE
    hi += lo
    _reduce(hi, t, q, qinv)
    return hi


def data_split_product(
    a: Array, d: Array, p: Array, t: Array, q: Array, qinv: Array
) -> Array:
    """``A @ x`` reduced, for centred ``a`` (k, r, n) and split data.

    ``d`` (k, 2, n, m) holds the halves of ``x`` (``[:, 0]`` high,
    ``[:, 1]`` low); ``p`` (k, 2, r, m) receives both products and ``t``
    (k, r, m) is scratch.  Returns a view of ``p`` congruent to
    ``A @ x`` with magnitude at most ``R``.
    """
    np.matmul(a[:, np.newaxis], d, out=p)
    return _fold(p[:, 0], p[:, 1], t, q, qinv)


def matrix_split_product(
    b: Array, z: Array, s: Array, t: Array, q: Array, qinv: Array
) -> Array:
    """``B @ z`` reduced, for split ``b`` (k, 2, r, n) and ``|z| <= R``.

    ``b`` holds the halves of ``B`` (``[:, 0]`` high, ``[:, 1]`` low);
    ``s`` (k, 2, r, m) receives both products and ``t`` (k, r, m) is
    scratch.  Returns a view of ``s`` congruent to ``B @ z`` with
    magnitude at most ``R``.
    """
    # One product per half, as in data_split_product: up to N = 2**12
    # each stays small enough for OpenBLAS to run on one thread, and
    # multi-threaded products of that size sometimes stalled for
    # ~100 ms on a shared 2-vCPU VM.
    np.matmul(b, z[:, np.newaxis], out=s)
    return _fold(s[:, 0], s[:, 1], t, q, qinv)


def _exponents(degree: int, n1: int, n2: int) -> Tuple[Tuple[Array, ...], ...]:
    """The ``psi`` (forward) and ``psi^-1`` (inverse) exponents of ``(A, T, B)``."""
    row2, col2 = np.arange(n2)[:, np.newaxis], np.arange(n2)[np.newaxis, :]
    row1, col1 = np.arange(n1)[:, np.newaxis], np.arange(n1)[np.newaxis, :]
    forward = (n1 * col2 * (2 * row2 + 1), col1 * (2 * row2 + 1), 2 * n2 * col1 * row1)
    inverse = (2 * n1 * col2 * row2, row2 * (2 * col1 + 1), n2 * row1 * (2 * col1 + 1))
    return tuple(tuple(e % (2 * degree) for e in part) for part in (forward, inverse))


class _Chunk:
    """The tables of moduli reserved together, one row per modulus.

    ``tables[0]`` (forward) and ``tables[1]`` (inverse) hold ``A`` centred
    (k, n2, n2), and ``T`` (k, 2, n2, n1, float32) and ``B`` (k, 2, n1, n1)
    as halves, filled one modulus at a time to bound the transient.
    """

    def __init__(self, degree: int, n1: int, n2: int, moduli: Sequence[int]):
        k = len(moduli)
        q_int = np.array(moduli, dtype=np.int64)[:, np.newaxis, np.newaxis]
        self.q = q_int.astype(np.float64)
        self.qinv = 1.0 / self.q
        self.q_u = q_int.view(np.uint64)
        layout: Tuple[Tuple[Tuple[int, ...], type], ...] = (
            ((k, n2, n2), np.float64),
            ((k, 2, n2, n1), np.float32),
            ((k, 2, n1, n1), np.float64),
        )
        self.tables = tuple(
            tuple(np.empty(shape, dtype) for shape, dtype in layout)
            for _ in range(2)
        )
        exponents = _exponents(degree, n1, n2)
        for row, q in enumerate(moduli):
            # The plan is a temporary: it is freed when _fill returns,
            # before the next modulus' plan is built.
            self._fill(row, NttContext(degree, q), exponents)

    def _fill(
        self, row: int, ctx: NttContext, exponents: Tuple[Tuple[Array, ...], ...]
    ) -> None:
        """Copy row ``row``'s tables from the oracle plan ``ctx``."""
        q = ctx.q
        # The inverse's B carries the 1/N factor.
        directions = ((ctx._psi_powers, 1), (ctx._inv_psi_powers, ctx._n_inv))
        for (a, tw, b), (ea, et, eb), (powers, scale) in zip(
            self.tables, exponents, directions
        ):
            # psi^e for every e mod 2N, copied from the oracle's
            # powers: psi^(N + i) = -psi^i.
            half = np.array(powers, dtype=np.int64)
            table = np.concatenate([half, q - half])
            a[row] = centred(table[ea], q)
            tw[row, 0], tw[row, 1] = halves(table[et])
            b[row, 0], b[row, 1] = halves(table[eb] * scale % q)


class DegreeTables:
    """Every modulus' four-step tables at one degree, plus the scratch."""

    def __init__(self, degree: int):
        # BatchNttKernel admits only powers of two up to MAX_DEGREE.
        log_n = degree.bit_length() - 1
        self.degree = degree
        self.n1 = 1 << (log_n // 2)
        self.n2 = degree // self.n1
        self.block_limbs = max(1, BLOCK_ELEMENTS // degree)
        self._rows: Dict[int, Tuple[_Chunk, int]] = {}
        limbs, n1, n2 = self.block_limbs, self.n1, self.n2
        self._d = np.empty((limbs, 2, n2, n1))
        self._p = np.empty((limbs, 2, n2, n1))
        self._t = np.empty((limbs, n2, n1))

    def plan(self, moduli: Sequence[int]) -> List[Block]:
        """Reserve rows for the new ones of ``moduli``; return the blocks."""
        fresh = list(dict.fromkeys(q for q in moduli if q not in self._rows))
        if fresh:
            chunk = _Chunk(self.degree, self.n1, self.n2, fresh)
            self._rows.update((q, (chunk, row)) for row, q in enumerate(fresh))
        blocks: List[Block] = []
        for limb, q in enumerate(moduli):
            chunk, row = self._rows[q]
            if blocks:
                lo, hi, last, start = blocks[-1]
                run = hi - lo
                if last is chunk and start + run == row and run < self.block_limbs:
                    blocks[-1] = (lo, hi + 1, chunk, start)
                    continue
            blocks.append((limb, limb + 1, chunk, row))
        return blocks

    def transform(
        self, x: np.ndarray, blocks: Sequence[Block], inverse: bool
    ) -> np.ndarray:
        """Forward (or inverse) NTT of ``x``: (L, N) int64 in ``[0, 2**30)``.

        Returns a fresh ``(L, N)`` int64 matrix of canonical residues.
        """
        out = np.empty_like(x)
        n1, n2 = self.n1, self.n2
        for lo, hi, chunk, start in blocks:
            k = hi - lo
            rows = slice(start, start + k)
            a, tw, b = (table[rows] for table in chunk.tables[inverse])
            q, qinv = chunk.q[rows], chunk.qinv[rows]
            d, p, t = self._d[:k], self._p[:k], self._t[:k]

            xv = x[lo:hi].reshape(k, n2, n1)
            np.right_shift(xv, _HALF, out=d[:, 0])
            np.bitwise_and(xv, _LOW, out=d[:, 1])
            y = data_split_product(a, d, p, t, q, qinv)

            u, v = d[:, 0], d[:, 1]
            np.multiply(y, tw[:, 0], out=u)
            np.multiply(y, tw[:, 1], out=v)
            z = _fold(u, v, t, q, qinv)

            t = t.reshape(k, n1, n2)
            r = matrix_split_product(
                b, z.transpose(0, 2, 1), p.reshape(k, 2, n1, n2), t, q, qinv
            )
            # r is in (-q, q): min(r, r + q) over uint64 is canonical,
            # because a negative r wraps to above 2**63 and loses the min.
            res = out[lo:hi].reshape(k, n1, n2)
            np.copyto(res, r, casting="unsafe")
            res_u, t_u = res.view(np.uint64), t.view(np.uint64)
            np.add(res_u, chunk.q_u[rows], out=t_u)
            np.minimum(res_u, t_u, out=res_u)
        return out


_STORES: Dict[int, DegreeTables] = {}


def tables_for(degree: int) -> DegreeTables:
    """The process-wide :class:`DegreeTables` of ``degree``."""
    if degree not in _STORES:
        _STORES[degree] = DegreeTables(degree)
    return _STORES[degree]
