"""Vectorized slot-wise RNS basis conversion (the fast ``NewLimb`` path).

The pure-Python :func:`repro.ring.conversion.new_limb` accumulates
``sum_i [[x]_{q_i} * Q~_i]_{q_i} * Q*_i`` in unbounded Python integers
and reduces once at the end.  The kernel computes the same sum as one
unsigned 64-bit matrix product per block of at most
:data:`CONVERSION_BLOCK` source limbs, reducing once per block —
identical modulo the target, and float-free.  Every input to a product
is a canonical residue, so a block's sum never wraps.

All precomputed constants (``Q~_i`` inverses, ``Q*_i`` residues,
``P^{-1}`` factors) are derived by the caller with
exact Python-integer arithmetic (:class:`repro.ring.RnsBasis`); this
module only vectorizes the per-coefficient work.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from repro.kernels.ntt import Rows
from repro.kernels.reduce import mul_mod

__all__ = ["CONVERSION_BLOCK", "new_limbs_matrix", "sub_scale_mod"]

#: Source limbs per unsigned product: ``16 * (2**30 - 1)**2 < 2**64``.
CONVERSION_BLOCK = 16


def _check_lengths(**named: int) -> None:
    """Raise a ValueError naming every length that disagrees with the first."""
    (first, want), *rest = named.items()
    bad = [f"{name}={got}" for name, got in rest if got != want]
    if bad:
        raise ValueError(f"shape mismatch: {first}={want} but " + ", ".join(bad))


def new_limbs_matrix(
    coeff_rows: Rows,
    moduli: Sequence[int],
    q_hat_inverses: Sequence[int],
    q_stars: Sequence[Sequence[int]],
    targets: Sequence[int],
) -> np.ndarray:
    """Fast basis conversion of ``L`` source limbs into ``T`` new limbs.

    Implements Eq. (1) of the paper for every target modulus at once:
    ``out[t][j] = sum_i [[x_j]_{q_i} * Q~_i]_{q_i} * [Q*_i]_{p_t}``
    modulo ``p_t``, as ``sum_blocks (stars[:, blk] @ scaled[blk]) mod p_t``
    in uint64.  Both factors are canonical residues below ``2**30``, so a
    block of at most 16 source limbs sums to at most
    ``16 * (2**30 - 1)**2 < 2**64`` and never wraps; the canonical block
    results are added with one conditional subtract each.  Inputs that
    disagree on ``L`` or ``T`` raise a ValueError naming the mismatch.

    Args:
        coeff_rows: ``(L, N)`` residue rows in coefficient form.
        moduli: the ``L`` source limb moduli.
        q_hat_inverses: ``(Q/q_i)^{-1} mod q_i`` per source limb.
        q_stars: ``(T, L)`` matrix of ``(Q/q_i) mod p_t`` residues.
        targets: the ``T`` target moduli ``p_t``.

    Returns:
        A fresh ``(T, N)`` int64 matrix of canonical residues.
    """
    x = np.asarray(coeff_rows, dtype=np.int64)
    stars = np.asarray(q_stars, dtype=np.uint64)
    if x.ndim != 2 or stars.ndim != 2 or not len(x):
        raise ValueError(
            f"expected (L, N) rows with L >= 1 and (T, L) stars, got "
            f"shapes {x.shape} and {stars.shape}"
        )
    _check_lengths(
        rows=x.shape[0],
        moduli=len(moduli),
        q_hat_inverses=len(q_hat_inverses),
        star_columns=stars.shape[1],
    )
    _check_lengths(targets=len(targets), star_rows=stars.shape[0])
    q_col = np.asarray(moduli, dtype=np.int64)[:, np.newaxis]
    hat_inv = np.asarray(q_hat_inverses, dtype=np.int64)[:, np.newaxis]
    t_col = np.asarray(targets, dtype=np.uint64)[:, np.newaxis]

    # [[x]_{q_i} * Q~_i]_{q_i}: canonical, so the uint64 view is exact.
    scaled = mul_mod(x, hat_inv, q_col).view(np.uint64)  # (L, N)

    blk = CONVERSION_BLOCK
    out = None
    for lo in range(0, x.shape[0], blk):
        part = stars[:, lo : lo + blk] @ scaled[lo : lo + blk]
        np.remainder(part, t_col, out=part)
        if out is None:
            out = part
            continue
        out += part  # both canonical: below 2 * p_t
        # min(v, v - p_t): below p_t the subtraction wraps and loses.
        np.subtract(out, t_col, out=part)
        np.minimum(out, part, out=out)
    return out.view(np.int64)


def sub_scale_mod(
    minuend_rows: Rows,
    subtrahend_rows: Rows,
    scales: Sequence[int],
    moduli: Sequence[int],
) -> np.ndarray:
    """Fused ModDown tail: ``(a - h) * P^{-1} mod q`` per limb, vectorized.

    ``a - h`` lies in ``(-q, q)`` and the per-limb scale is below ``q``,
    so the product magnitude stays under ``2**60``; ``np.remainder``
    matches Python ``%`` on negative operands, keeping the result equal
    to the oracle's ``(a - h) * p_inv % q``.  Raises ValueError naming
    the mismatch unless both matrices are ``(L, N)`` with ``L`` scales and
    ``L`` moduli.
    """
    a = np.asarray(minuend_rows, dtype=np.int64)
    h = np.asarray(subtrahend_rows, dtype=np.int64)
    if a.ndim != 2 or a.shape != h.shape:
        raise ValueError(
            f"expected two (L, N) matrices of one shape, got {a.shape} "
            f"and {h.shape}"
        )
    _check_lengths(rows=a.shape[0], scales=len(scales), moduli=len(moduli))
    scale_col = np.asarray(scales, dtype=np.int64)[:, np.newaxis]
    q_col = np.asarray(moduli, dtype=np.int64)[:, np.newaxis]
    # One fresh matrix, scaled and reduced in place.
    out = np.subtract(a, h)
    out *= scale_col
    return np.remainder(out, q_col, out=out)
