"""RNS basis-change algorithms: NewLimb, ModUp, ModDown, Rescale, PModUp.

These are exact-arithmetic implementations of Equations (1) and Algorithms
1, 2 and 5 of the MAD paper.  ``new_limb`` is the *approximate* fast basis
conversion standard in full-RNS CKKS (Cheon et al., SAC 2018): its output is
``x + u*Q (mod p)`` for some small ``0 <= u < l``; the excess ``u*Q`` is
absorbed into ciphertext noise exactly as in production FHE libraries.

``mod_up`` and ``mod_down`` each run their passes (NTTs, conversions and
the pointwise tail) inside one :func:`repro.kernels.limb_passes` scope.
"""

from __future__ import annotations

from typing import List, Sequence, Union

import numpy as np

from repro import kernels
from repro.numth.modular import mod_inverse
from repro.ring.basis import RnsBasis, limb_dtype
from repro.ring.polynomial import Representation, RnsPolynomial


def new_limb(
    coeff_rows: Union[np.ndarray, Sequence[Sequence[int]]],
    source_basis: RnsBasis,
    target_modulus: int,
) -> List[int]:
    """Fast basis conversion of a coefficient-form element to a new modulus.

    Implements Eq. (1):  ``[x]_p = sum_i [[x]_{q_i} * Q~_i]_{q_i} * Q*_i mod p``.

    This is the paper's *slot-wise* operation: each output coefficient needs
    the matching coefficient from every source limb.  It is the
    pure-Python oracle of :func:`repro.kernels.new_limbs_matrix` and works
    on Python ints throughout.

    Args:
        coeff_rows: one residue row per source limb, in coefficient form.
        source_basis: the basis the rows live over.
        target_modulus: the modulus ``p`` of the limb to synthesise.

    Returns:
        The new limb's residue row modulo ``target_modulus``.
    """
    if len(coeff_rows) != len(source_basis):
        raise ValueError(
            f"got {len(coeff_rows)} rows for a {len(source_basis)}-limb basis"
        )
    if isinstance(coeff_rows, np.ndarray):
        coeff_rows = coeff_rows.tolist()
    degree = source_basis.degree
    q_hat_inv = source_basis.q_hat_inverses()
    q_star = source_basis.q_stars_mod(target_modulus)
    out = [0] * degree
    for row, q, hat_inv, star in zip(
        coeff_rows, source_basis, q_hat_inv, q_star
    ):
        for j in range(degree):
            out[j] += row[j] * hat_inv % q * star
    return [v % target_modulus for v in out]


def _new_limb_rows(
    coeff_rows: np.ndarray,
    source_basis: RnsBasis,
    targets: Sequence[int],
) -> np.ndarray:
    """All of ``targets``' new limbs at once, kernel-dispatched.

    The vectorized path (:func:`repro.kernels.new_limbs_matrix`) needs
    every source *and* target modulus inside the int64 bound; otherwise
    each target limb falls back to the pure-Python :func:`new_limb`.
    Both produce identical canonical rows.
    """
    target_list = [int(t) for t in targets]
    if source_basis.fast_path and kernels.moduli_fit(target_list):
        return kernels.new_limbs_matrix(
            coeff_rows,
            list(source_basis.moduli),
            source_basis.q_hat_inverses(),
            [source_basis.q_stars_mod(t) for t in target_list],
            target_list,
        )
    rows = coeff_rows.tolist()
    return np.array(
        [new_limb(rows, source_basis, t) for t in target_list],
        dtype=limb_dtype(target_list),
    )


def mod_up(poly: RnsPolynomial, target: RnsBasis) -> RnsPolynomial:
    """Raise ``poly`` to ``target``, a basis with its moduli and more (Algorithm 1).

    Input and output are in evaluation representation; the original limbs
    pass through untouched (the "no need to NTT the input limbs" note of
    Algorithm 1) and each new limb costs one slot-wise conversion plus one
    limb-wise NTT.  The result is written once, in ``target``'s row order:
    every source row and every new row goes straight to its modulus' row,
    wherever the source moduli sit in ``target`` (a key-switch digit's
    sit between the lower and the higher limbs of the raised basis), so
    no concatenated or reordered copy is made.

    Raises:
        ValueError: for a coefficient-form input, or a ``target`` that
            lacks a modulus of ``poly`` or adds none.
    """
    if poly.representation is not Representation.EVAL:
        raise ValueError("mod_up expects evaluation representation")
    row_of = {q: i for i, q in enumerate(target.moduli)}
    own = [row_of.get(q) for q in poly.basis.moduli]
    if target.degree != poly.basis.degree or None in own:
        raise ValueError(
            f"{target!r} does not hold every modulus of {poly.basis!r}"
        )
    held = set(poly.basis.moduli)
    new = [i for i, q in enumerate(target.moduli) if q not in held]
    if not new:
        raise ValueError("the target basis adds no modulus")
    extension = [target.moduli[i] for i in new]
    with kernels.limb_passes(poly.basis.degree):
        # One expression, so the conversion's rows are freed with the NTT.
        new_rows = poly.basis.transform(
            _new_limb_rows(poly.to_coeff().limbs, poly.basis, extension),
            moduli=extension,
        )
        rows = np.empty((len(target), target.degree), dtype=target.dtype)
        rows[new] = new_rows
        rows[own] = poly.limbs
    return RnsPolynomial._wrap(target, rows, Representation.EVAL)


def mod_down(poly: RnsPolynomial, drop: int) -> RnsPolynomial:
    """Drop the last ``drop`` limbs while dividing by their product (Alg. 2).

    For input ``[x]_{B∪B'}`` with ``P = prod(B')``, returns ``[P^{-1} x]_B``
    up to the small rounding error inherent to approximate basis conversion.
    Input and output are in evaluation representation.
    """
    if poly.representation is not Representation.EVAL:
        raise ValueError("mod_down expects evaluation representation")
    if not 1 <= drop < poly.num_limbs:
        raise ValueError(
            f"cannot drop {drop} of {poly.num_limbs} limbs"
        )
    keep = poly.num_limbs - drop
    target_basis = poly.basis.prefix(keep)
    dropped_basis = RnsBasis(poly.basis.degree, poly.basis.moduli[keep:])
    p_product = dropped_basis.modulus

    with kernels.limb_passes(poly.basis.degree):
        # Line 1 (optimised): only the dropped limbs need coefficient form.
        dropped_coeff = poly.basis.transform(
            poly.limbs[keep:], inverse=True, moduli=dropped_basis.moduli
        )

        # Line 3: slot-wise conversion of the dropped part into every kept
        # limb (one expression, so the conversion's rows are freed with
        # the NTT).
        hat_evals = target_basis.transform(
            _new_limb_rows(dropped_coeff, dropped_basis, target_basis.moduli)
        )

        # Line 4: (x - x_hat) * P^{-1} mod q, pointwise in evaluation form.
        p_invs = [mod_inverse(p_product % q, q) for q in target_basis]
        if target_basis.fast_path:
            rows = kernels.sub_scale_mod(
                poly.limbs[:keep], hat_evals, p_invs, list(target_basis.moduli)
            )
        else:
            rows = np.remainder(
                (poly.limbs[:keep] - hat_evals) * target_basis.column(p_invs),
                target_basis.q_col,
            ).astype(target_basis.dtype, copy=False)
    return RnsPolynomial._wrap(target_basis, rows, Representation.EVAL)


def rescale(poly: RnsPolynomial) -> RnsPolynomial:
    """Divide by the last limb modulus and drop it (specialised ModDown).

    This is the CKKS ``Rescale``: shrinking the scaling factor from
    ``Delta^2`` back to ``~Delta`` after a multiplication.
    """
    if poly.num_limbs < 2:
        raise ValueError("cannot rescale a single-limb element")
    return mod_down(poly, 1)


def p_mod_up(poly: RnsPolynomial, extension: Sequence[int]) -> RnsPolynomial:
    """Lift ``x in R_Q`` to ``P*x in R_PQ`` without basis conversion (Alg. 5).

    Multiplies each existing limb by ``P mod q_i`` and appends all-zero limbs
    for the extension moduli (since ``P*x = 0 mod p`` for each ``p | P``).
    Purely limb-wise — this is what makes "linear functions in the raised
    basis" cheap and enables the ModDown merge/hoisting optimizations.
    """
    if not extension:
        raise ValueError("extension basis must be non-empty")
    p_product = 1
    for p in extension:
        p_product *= p
    merged = poly.basis.extended(extension)
    rows = np.zeros((len(merged), merged.degree), dtype=merged.dtype)
    rows[: poly.num_limbs] = poly.scalar_mul(p_product).limbs
    return RnsPolynomial._wrap(merged, rows, poly.representation)
