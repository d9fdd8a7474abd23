"""Homomorphic linear transforms: the paper's ``PtMatVecMult``.

A plaintext matrix-vector product over encrypted slots is evaluated as

    y = sum_d  diag_d ⊙ rotate(z, d)

over the non-zero generalised diagonals of the matrix.  This module
implements three strategies:

* ``naive``     — one full Rotate (KeySwitch included) per diagonal.
* ``hoisted``   — Fig. 5(c) of the paper: ModUp hoisting shares one
  Decomp+ModUp across every rotation of a source ciphertext, and ModDown
  hoisting accumulates the plaintext-multiplied key-switch outputs in the
  *raised* basis.  The transform runs one ModUp per source ciphertext —
  two with a conjugate matrix, whose conjugation also pays its own key
  switch — and one ModDown pair per transform.  Its four sums of
  products are :class:`repro.ring.ProductSum` accumulators, each reduced
  lazily.
* ``bsgs``      — baby-step/giant-step: ``O(sqrt(D))`` rotations, baby
  rotations hoisted.

Because CKKS slot maps are only R-linear once conjugation enters the
picture (bootstrapping's CoeffToSlot/SlotToCoeff need it), transforms take
an optional second matrix applied to the conjugated input:
``y = M1 z + M2 conj(z)``.
"""

from __future__ import annotations

import math
from typing import Dict, List, Optional, Sequence, Tuple, Union

import numpy as np

from repro.ring import ProductSum, mod_down
from repro.ckks.cipher import Ciphertext, Plaintext
from repro.ckks.evaluator import Evaluator

#: Diagonals with max-abs below this threshold are treated as zero.
_ZERO_DIAGONAL_TOL = 1e-12


def matrix_diagonals(matrix: np.ndarray) -> Dict[int, np.ndarray]:
    """Non-zero generalised diagonals ``diag_d[j] = M[j, (j+d) mod n]``."""
    matrix = np.asarray(matrix, dtype=np.complex128)
    n = matrix.shape[0]
    if matrix.shape != (n, n):
        raise ValueError(f"matrix must be square, got {matrix.shape}")
    rows = np.arange(n)
    diagonals = {}
    for d in range(n):
        diag = matrix[rows, (rows + d) % n]
        if np.max(np.abs(diag)) > _ZERO_DIAGONAL_TOL:
            diagonals[d] = diag.copy()
    return diagonals


class LinearTransform:
    """A (possibly conjugate-aware) homomorphic slot-linear transform.

    Args:
        matrix: the ``n x n`` complex matrix ``M1``, or its non-zero
            generalised diagonals as a ``{offset: diag}`` dict (the form
            :meth:`repro.ckks.specialfft.SpecialFft.grouped_stage_diagonals`
            produces — the only one that scales to bootstrap-sized rings,
            since extracting diagonals from a dense matrix is ``O(n^2)``).
        conj_matrix: optional ``M2`` applied to the conjugated input, in
            either form.
        scale: plaintext encoding scale for the diagonals (defaults to the
            evaluator context's scale at apply time).
    """

    def __init__(
        self,
        matrix: Union[np.ndarray, Dict[int, np.ndarray]],
        conj_matrix: Optional[Union[np.ndarray, Dict[int, np.ndarray]]] = None,
        scale: Optional[float] = None,
    ):
        self.diagonals = self._to_diagonals(matrix)
        self.conj_diagonals = (
            self._to_diagonals(conj_matrix) if conj_matrix is not None else {}
        )
        if self.diagonals:
            self.slots = len(next(iter(self.diagonals.values())))
        elif self.conj_diagonals:
            self.slots = len(next(iter(self.conj_diagonals.values())))
        else:
            self.slots = np.asarray(matrix).shape[0]
        self.scale = scale

    @staticmethod
    def _to_diagonals(
        matrix: Union[np.ndarray, Dict[int, np.ndarray]],
    ) -> Dict[int, np.ndarray]:
        if isinstance(matrix, dict):
            return {
                int(d): np.asarray(v, dtype=np.complex128)
                for d, v in matrix.items()
            }
        return matrix_diagonals(matrix)

    # ------------------------------------------------------------------
    def required_rotations(self, method: str = "hoisted") -> List[int]:
        """Rotation steps an evaluator needs keys for."""
        all_steps = set(self.diagonals) | set(self.conj_diagonals)
        if method == "bsgs":
            baby, _ = self._bsgs_split()
            needed = set()
            for d in all_steps:
                needed.add(d % baby)
                needed.add(d - d % baby)
        else:
            needed = set(all_steps)
        needed.discard(0)
        return sorted(needed)

    def needs_conjugation(self) -> bool:
        return bool(self.conj_diagonals)

    def _bsgs_split(self) -> Tuple[int, int]:
        """Baby-step size ``g`` and giant-step count for this dimension."""
        count = max(len(self.diagonals) + len(self.conj_diagonals), 1)
        baby = 1 << max(int(round(math.log2(math.sqrt(count)))), 0)
        giant = math.ceil(self.slots / baby)
        return baby, giant

    # ------------------------------------------------------------------
    def apply(
        self,
        evaluator: Evaluator,
        ct: Ciphertext,
        method: str = "hoisted",
        rescale: bool = True,
    ) -> Ciphertext:
        """Evaluate ``M1 z + M2 conj(z)`` homomorphically."""
        if method not in ("naive", "hoisted", "bsgs"):
            raise ValueError(f"unknown method {method!r}")
        inputs = []
        if self.diagonals:
            inputs.append((ct, self.diagonals))
        if self.conj_diagonals:
            inputs.append((evaluator.conjugate(ct), self.conj_diagonals))
        if not inputs:
            raise ValueError("transform has no non-zero diagonals")
        scale = self.scale if self.scale is not None else evaluator.context.scale

        if method == "naive":
            out = self._apply_naive(evaluator, inputs, scale)
        elif method == "hoisted":
            out = self._apply_hoisted(evaluator, inputs, scale)
        else:
            out = self._apply_bsgs(evaluator, inputs, scale)
        return evaluator.rescale(out) if rescale else out

    # ------------------------------------------------------------------
    def _apply_naive(
        self,
        evaluator: Evaluator,
        inputs: Sequence[Tuple[Ciphertext, Dict[int, np.ndarray]]],
        scale: float,
    ) -> Ciphertext:
        acc = None
        for source, diagonals in inputs:
            for d, diag in diagonals.items():
                rotated = evaluator.rotate(source, d) if d else source
                term = evaluator.pt_mult(
                    rotated,
                    Plaintext(
                        evaluator.context.encoder.encode(list(diag), scale),
                        scale,
                    ),
                    rescale=False,
                )
                acc = term if acc is None else evaluator.add(acc, term)
        return acc

    # ------------------------------------------------------------------
    def _apply_hoisted(
        self,
        evaluator: Evaluator,
        inputs: Sequence[Tuple[Ciphertext, Dict[int, np.ndarray]]],
        scale: float,
    ) -> Ciphertext:
        """One ModUp per source ciphertext, one ModDown pair per transform (Fig. 5c).

        With a conjugate matrix there are two sources, ``ct`` and its
        conjugate, whose conjugation pays one more key switch in
        :meth:`apply`.  The ``b``, ``a``, ``c0`` and ``c1`` sums of
        diagonal products are :class:`~repro.ring.ProductSum`
        accumulators: one lazily reduced multiply-accumulate each, with
        the eager ring expression as their reference.
        """
        ctx = evaluator.context
        limbs = inputs[0][0].num_limbs
        raised_basis = ctx.raised_basis(limbs)
        normal_basis = ctx.basis_at(limbs)
        acc_b, acc_a = ProductSum(raised_basis), ProductSum(raised_basis)
        acc_c0, acc_c1 = ProductSum(normal_basis), ProductSum(normal_basis)
        used_raised = False

        for source, diagonals in inputs:
            raised_digits = None
            for d, diag in diagonals.items():
                pt = Plaintext(ctx.encoder.encode(list(diag), scale), scale)
                if d == 0:
                    pt_poly = pt.to_poly(normal_basis)
                    acc_c0.add(source.c0, pt_poly)
                    acc_c1.add(source.c1, pt_poly)
                    continue
                if raised_digits is None:
                    # ModUp hoisting: one Decomp+ModUp per source ciphertext.
                    raised_digits = evaluator.raise_digits(source.c1)
                key = evaluator.rotation_keys.get(d)
                if key is None:
                    raise ValueError(f"no rotation key for {d} steps")
                t = ctx.encoder.rotation_automorphism(d)
                rotated = [dig.automorph(t) for dig in raised_digits]
                b, a = evaluator.ksk_inner_product(rotated, key, limbs)
                # ModDown hoisting: PtMult in the raised basis, defer the
                # ModDown to a single pair after the accumulation.
                pt_raised = pt.to_poly(raised_basis)
                acc_b.add(b, pt_raised)
                acc_a.add(a, pt_raised)
                # Evaluation rows are per modulus and the raised basis
                # starts with the normal one: no second NTT needed.
                pt_poly = pt_raised.select_limbs(slice(0, limbs), normal_basis)
                acc_c0.add(source.c0.automorph(t), pt_poly)
                used_raised = True

        c0, c1 = acc_c0.result(), acc_c1.result()
        if used_raised:
            drop = len(ctx.special_moduli)
            c0 = c0 + mod_down(acc_b.result(), drop)
            c1 = c1 + mod_down(acc_a.result(), drop)
        return Ciphertext(c0, c1, inputs[0][0].scale * scale)

    # ------------------------------------------------------------------
    def _apply_bsgs(
        self,
        evaluator: Evaluator,
        inputs: Sequence[Tuple[Ciphertext, Dict[int, np.ndarray]]],
        scale: float,
    ) -> Ciphertext:
        """Baby-step/giant-step with hoisted baby rotations."""
        ctx = evaluator.context
        baby, _ = self._bsgs_split()
        acc = None
        for source, diagonals in inputs:
            # Group diagonals by giant step; babies are the offsets mod g.
            groups: Dict[int, List[Tuple[int, np.ndarray]]] = {}
            for d, diag in diagonals.items():
                groups.setdefault(d - d % baby, []).append((d % baby, diag))
            baby_steps = sorted(
                {b for members in groups.values() for b, _ in members if b}
            )
            rotated = (
                evaluator.rotations_hoisted(source, baby_steps)
                if baby_steps
                else {}
            )
            rotated[0] = source
            for giant, members in groups.items():
                inner = None
                for b, diag in members:
                    # Pre-rotate the diagonal so the giant rotation lands it
                    # in the right slots: pre[k] = diag[(k - giant) mod n].
                    pre = np.roll(diag, giant)
                    term = evaluator.pt_mult(
                        rotated[b],
                        Plaintext(
                            ctx.encoder.encode(list(pre), scale), scale
                        ),
                        rescale=False,
                    )
                    inner = term if inner is None else evaluator.add(inner, term)
                moved = evaluator.rotate(inner, giant) if giant else inner
                acc = moved if acc is None else evaluator.add(acc, moved)
        return acc
