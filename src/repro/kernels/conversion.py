"""Vectorized slot-wise RNS basis conversion (the fast ``NewLimb`` path).

The pure-Python :func:`repro.ring.conversion.new_limb` accumulates
``sum_i [[x]_{q_i} * Q~_i]_{q_i} * Q*_i`` in unbounded Python integers
and reduces once at the end.  The int64 kernel instead reduces the
accumulator after every source limb — identical modulo the target, and
necessary because ``L`` unreduced ``2**60``-scale terms would overflow a
signed 64-bit word.  Like the NTT kernel, every intermediate value is a
canonical residue, which keeps the fast path bit-exact against the
oracle.

:func:`mixed_radix_digits` is the first half of a CRT reconstruction
(:meth:`repro.ring.RnsPolynomial.to_int_coeffs`): Garner's digits, each
a canonical residue, from which small coefficients are assembled in
int64 without the Python-int weighted sum.

All precomputed constants (``Q~_i`` inverses, ``Q*_i`` residues,
``P^{-1}`` factors, Garner inverses) are derived by the caller with
exact Python-integer arithmetic (:class:`repro.ring.RnsBasis`); this
module only vectorizes the per-coefficient work.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from repro.kernels.ntt import Rows
from repro.kernels.reduce import mul_mod

__all__ = ["mixed_radix_digits", "new_limbs_matrix", "sub_scale_mod"]


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
    modulo ``p_t``.

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
    q_col = np.asarray(moduli, dtype=np.int64)[:, np.newaxis]
    hat_inv = np.asarray(q_hat_inverses, dtype=np.int64)[:, np.newaxis]
    stars = np.asarray(q_stars, dtype=np.int64)
    t_col = np.asarray(targets, dtype=np.int64)[:, np.newaxis]

    # [[x]_{q_i} * Q~_i]_{q_i}: still per-source-limb residues.
    scaled = mul_mod(x, hat_inv, q_col)  # (L, N)

    out = np.zeros((len(targets), x.shape[1]), dtype=np.int64)
    for i in range(x.shape[0]):
        term = mul_mod(scaled[i][np.newaxis, :], stars[:, i][:, np.newaxis], t_col)
        out += term  # both canonical: the sum stays below 2 * p_t < 2**31
        np.subtract(out, t_col, out=out, where=out >= t_col)
    return out


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
    to the oracle's ``(a - h) * p_inv % q``.
    """
    a = np.asarray(minuend_rows, dtype=np.int64)
    h = np.asarray(subtrahend_rows, dtype=np.int64)
    scale_col = np.asarray(scales, dtype=np.int64)[:, np.newaxis]
    q_col = np.asarray(moduli, dtype=np.int64)[:, np.newaxis]
    return np.remainder((a - h) * scale_col, q_col)


def mixed_radix_digits(
    coeff_rows: Rows,
    moduli: Sequence[int],
    garner_inverses: Sequence[int],
) -> np.ndarray:
    """Garner's mixed-radix digits of every column of a residue matrix.

    Column ``j`` of ``coeff_rows`` holds the residues ``x mod q_i`` of
    one integer ``x`` in ``[0, Q)``; its digits ``v_0 .. v_{L-1}``, each
    in ``[0, q_i)``, satisfy
    ``x = v_0 + v_1 q_0 + v_2 q_0 q_1 + ... + v_{L-1} q_0 ... q_{L-2}``.
    Digit ``i`` is ``(x_i - s_i) * (q_0 ... q_{i-1})^{-1} mod q_i``,
    where ``s_i`` is the part of that sum below digit ``i``, evaluated
    mod ``q_i`` by Horner's rule from ``v_{i-1}`` down: ``O(L^2)``
    vector multiply-adds, every product below ``2**60``.

    Args:
        coeff_rows: ``(L, N)`` canonical residues in coefficient form.
        moduli: the ``L`` limb moduli, each below ``2**30``.
        garner_inverses: ``(q_0 ... q_{i-1})^{-1} mod q_i`` for
            ``i = 1 .. L-1``.

    Returns:
        A fresh ``(L, N)`` int64 matrix; row ``i`` is digit ``v_i``.
    """
    x = np.asarray(coeff_rows, dtype=np.int64)
    digits = np.empty_like(x)
    digits[0] = x[0]
    for i in range(1, len(moduli)):
        q = int(moduli[i])
        acc = digits[i - 1].copy()
        for j in range(i - 2, -1, -1):
            acc *= int(moduli[j])
            acc += digits[j]
            np.remainder(acc, q, out=acc)
        # x_i - acc lies in (-2**30, 2**30); remainder lands in [0, q).
        np.subtract(x[i], acc, out=acc)
        acc *= int(garner_inverses[i - 1])
        np.remainder(acc, q, out=digits[i])
    return digits
