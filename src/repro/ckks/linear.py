"""Homomorphic linear transforms: the paper's ``PtMatVecMult``.

A plaintext matrix-vector product over encrypted slots is evaluated as

    y = sum_d  diag_d ⊙ rotate(z, d)

over the non-zero generalised diagonals of the matrix.  Both strategies
run one baby-step/giant-step split (:func:`bsgs_groups`): read as signed
values, the offsets are multiples of a stride ``g`` (their gcd), and each
is ``g * (giant + baby)`` with ``baby`` in ``[0, b)`` and ``giant`` a
multiple of ``b``, the baby step of :func:`repro.perf.matvec.bsgs_split`.
Then

    y = sum_giant rotate( sum_baby pre_d ⊙ rotate(z, g*baby), g*giant )

where ``pre_d`` is ``diag_d`` rotated right by ``g*giant``.

* ``hoisted`` — Fig. 5(c) of the paper, the model's ``mod_down_hoist``
  structure at the doubled baby step: one Decomp+ModUp of each source's
  ``c1``, one key-switch inner product per non-zero baby step, the
  plaintext products summed in the *raised* basis, one more key switch
  per non-zero giant step whose raised output joins the same sums, and
  one ModDown pair per transform.  Its sums of products are
  :class:`repro.ring.ProductSum` accumulators, each reduced lazily.
* ``bsgs`` — the model's baseline at the plain baby step: the baby
  rotations share one Decomp+ModUp and each pays its own ModDown pair;
  every non-zero giant step is a full Rotate.

Because CKKS slot maps are only R-linear once conjugation enters the
picture (bootstrapping's CoeffToSlot/SlotToCoeff need it), transforms take
an optional second matrix applied to the conjugated input:
``y = M1 z + M2 conj(z)``.
"""

from __future__ import annotations

import math
from typing import Dict, List, Optional, Sequence, Tuple, Union

import numpy as np

from repro.perf.matvec import bsgs_split
from repro.ring import ProductSum, RnsBasis, RnsPolynomial, mod_down
from repro.ckks.cipher import Ciphertext, Plaintext
from repro.ckks.evaluator import Evaluator
from repro.ckks.keys import SwitchingKey

#: Diagonals with max-abs below this threshold are treated as zero.
_ZERO_DIAGONAL_TOL = 1e-12

#: The evaluation strategies of :meth:`LinearTransform.apply`.
_METHODS = ("hoisted", "bsgs")

Diagonals = Dict[int, np.ndarray]


def _check_method(method: str) -> None:
    if method not in _METHODS:
        raise ValueError(f"unknown method {method!r}; choose one of {_METHODS}")


def matrix_diagonals(matrix: np.ndarray) -> Diagonals:
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


def bsgs_groups(
    offsets: Sequence[int], slots: int, larger_baby: bool
) -> Dict[int, Dict[int, int]]:
    """The baby-step/giant-step split of ``offsets``: ``{giant: {baby: offset}}``.

    Each offset, read in ``[-slots/2, slots/2)``, is ``g * (giant +
    baby)`` for the stride ``g`` (the offsets' gcd), a baby in ``[0, b)``
    and a giant that is a multiple of ``b``, with
    ``b = bsgs_split(len(offsets), larger_baby)[0]``.  Both steps are
    returned as rotations in ``[0, slots)``, so a giant of ``slots``
    costs no rotation.
    """
    signed = [(d + slots // 2) % slots - slots // 2 for d in offsets]
    stride = math.gcd(*signed) or 1
    baby_step = bsgs_split(len(signed), larger_baby=larger_baby)[0]
    groups: Dict[int, Dict[int, int]] = {}
    for d, s in zip(offsets, signed):
        baby = (s // stride) % baby_step * stride
        groups.setdefault((s - baby) % slots, {})[baby % slots] = d
    return groups


def _rotation_key(evaluator: Evaluator, steps: int) -> SwitchingKey:
    key = evaluator.rotation_keys.get(steps)
    if key is None:
        raise ValueError(f"no rotation key for {steps} steps")
    return key


class _GroupSums:
    """One giant step's sums: ``b`` and ``a`` raised, ``c0`` and ``c1`` not."""

    def __init__(self, raised_basis: RnsBasis, normal_basis: RnsBasis):
        self.b, self.a = ProductSum(raised_basis), ProductSum(raised_basis)
        self.c0, self.c1 = ProductSum(normal_basis), ProductSum(normal_basis)
        self.raised = False


def _add_rotated(
    evaluator: Evaluator,
    source: Ciphertext,
    raised_digits: Sequence[RnsPolynomial],
    steps: int,
    key: SwitchingKey,
    members: Sequence[Tuple[_GroupSums, Plaintext]],
) -> None:
    """Add ``pt * rotate(source, steps)`` to each ``(group, pt)``, raised.

    ModDown hoisting: the key switch's raised pair is multiplied by each
    plaintext in the raised basis, and its ModDown waits for the
    output's one pair.  The held digits are turned one at a time as the
    inner product consumes them, and the pair dies with this call, so
    no baby step's output outlives its products.
    """
    ctx = evaluator.context
    limbs = source.num_limbs
    t = ctx.encoder.rotation_automorphism(steps)
    b, a = evaluator.ksk_inner_product(
        (dig.automorph(t) for dig in raised_digits), key, limbs
    )
    c0 = source.c0.automorph(t)
    raised_basis, normal_basis = ctx.raised_basis(limbs), ctx.basis_at(limbs)
    for group, pt in members:
        pt_raised = pt.to_poly(raised_basis)
        group.b.add(b, pt_raised)
        group.a.add(a, pt_raised)
        # Evaluation rows are per modulus and the raised basis starts
        # with the normal one: no second NTT needed.
        pt_poly = pt_raised.select_limbs(slice(0, limbs), normal_basis)
        group.c0.add(c0, pt_poly)
        group.raised = True


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

    A dict's offsets are reduced mod ``n``, the diagonals' common length,
    and diagonals that land on one offset are summed.  In either form,
    diagonals whose max-abs is at most ``_ZERO_DIAGONAL_TOL`` are
    dropped, so they cost no rotation key.  The diagonals are encoded at
    the evaluator context's scale.

    Raises:
        ValueError: when neither matrix has a non-zero diagonal, or when
            the diagonals differ in length.
    """

    def __init__(
        self,
        matrix: Union[np.ndarray, Diagonals],
        conj_matrix: Optional[Union[np.ndarray, Diagonals]] = None,
    ):
        self.diagonals = self._to_diagonals(matrix)
        self.conj_diagonals = (
            self._to_diagonals(conj_matrix) if conj_matrix is not None else {}
        )
        lengths = {
            len(v)
            for diagonals in self._sources()
            for v in diagonals.values()
        }
        if not lengths:
            raise ValueError("transform has no non-zero diagonals")
        if len(lengths) > 1:
            raise ValueError(
                f"diagonals must share one length, got {sorted(lengths)}"
            )
        self.slots = lengths.pop()

    @staticmethod
    def _to_diagonals(matrix: Union[np.ndarray, Diagonals]) -> Diagonals:
        if not isinstance(matrix, dict):
            return matrix_diagonals(matrix)
        diagonals: Diagonals = {}
        for d, v in matrix.items():
            v = np.asarray(v, dtype=np.complex128)
            d = int(d) % len(v)
            diagonals[d] = diagonals[d] + v if d in diagonals else v
        return {
            d: v
            for d, v in diagonals.items()
            if np.max(np.abs(v)) > _ZERO_DIAGONAL_TOL
        }

    def _sources(self) -> List[Diagonals]:
        """The non-empty diagonal sets: ``M1``'s, then ``M2``'s."""
        return [d for d in (self.diagonals, self.conj_diagonals) if d]

    def _split(self, diagonals: Diagonals, method: str) -> Dict[int, Dict[int, int]]:
        return bsgs_groups(
            list(diagonals), self.slots, larger_baby=method == "hoisted"
        )

    # ------------------------------------------------------------------
    def required_rotations(self, method: str = "hoisted") -> List[int]:
        """Rotation steps, in ``[1, n)``, that :meth:`apply` reads keys for."""
        _check_method(method)
        needed = set()
        for diagonals in self._sources():
            for giant, babies in self._split(diagonals, method).items():
                needed.add(giant)
                needed.update(babies)
        needed.discard(0)
        return sorted(needed)

    def needs_conjugation(self) -> bool:
        return bool(self.conj_diagonals)

    # ------------------------------------------------------------------
    def apply(
        self,
        evaluator: Evaluator,
        ct: Ciphertext,
        method: str = "hoisted",
        rescale: bool = True,
    ) -> Ciphertext:
        """Evaluate ``M1 z + M2 conj(z)`` homomorphically."""
        _check_method(method)
        inputs = []
        if self.diagonals:
            inputs.append((ct, self.diagonals))
        if self.conj_diagonals:
            inputs.append((evaluator.conjugate(ct), self.conj_diagonals))
        scale = evaluator.context.scale

        if method == "hoisted":
            out = self._apply_hoisted(evaluator, inputs, scale)
        else:
            out = self._apply_bsgs(evaluator, inputs, scale)
        return evaluator.rescale(out) if rescale else out

    @staticmethod
    def _plaintext(
        evaluator: Evaluator, diag: np.ndarray, giant: int, scale: float
    ) -> Plaintext:
        """``diag`` rotated right by ``giant`` (so that the giant rotation
        lands it in its slots: ``pre[k] = diag[(k - giant) mod n]``), encoded."""
        pre = np.roll(diag, giant) if giant else diag
        return Plaintext(
            evaluator.context.encoder.encode(list(pre), scale), scale
        )

    # ------------------------------------------------------------------
    def _apply_hoisted(
        self,
        evaluator: Evaluator,
        inputs: Sequence[Tuple[Ciphertext, Diagonals]],
        scale: float,
    ) -> Ciphertext:
        """The ``mod_down_hoist`` PtMatVecMult: one ModDown pair per transform.

        With a conjugate matrix there are two sources, ``ct`` and its
        conjugate, whose conjugation pays one more key switch in
        :meth:`apply`.  The giant-0 group of every source sums straight
        into the output's sums; each non-zero giant step has its own,
        which :meth:`_turn` rotates once its babies are in.
        """
        ctx = evaluator.context
        limbs = inputs[0][0].num_limbs
        bases = ctx.raised_basis(limbs), ctx.basis_at(limbs)
        drop = len(ctx.special_moduli)
        out = _GroupSums(*bases)
        turned = []
        for source, diagonals in inputs:
            groups = self._split(diagonals, "hoisted")
            sums = {
                giant: _GroupSums(*bases) if giant else out for giant in groups
            }
            self._hoisted_babies(evaluator, source, diagonals, groups, sums, scale)
            turned += [
                self._turn(evaluator, group, giant, drop)
                for giant, group in sums.items()
                if giant
            ]

        c0, c1 = out.c0.result(), out.c1.result()
        if out.raised or turned:
            b, a = out.b.result(), out.a.result()
            for turned_c0, turned_b, turned_a in turned:
                c0, b, a = c0 + turned_c0, b + turned_b, a + turned_a
            c0 = c0 + mod_down(b, drop)
            c1 = c1 + mod_down(a, drop)
        return Ciphertext(c0, c1, inputs[0][0].scale * scale)

    def _hoisted_babies(
        self,
        evaluator: Evaluator,
        source: Ciphertext,
        diagonals: Diagonals,
        groups: Dict[int, Dict[int, int]],
        sums: Dict[int, _GroupSums],
        scale: float,
    ) -> None:
        """Sum every diagonal's product with its baby rotation of ``source``.

        One key-switch inner product per non-zero baby step, off one
        Decomp+ModUp of ``source.c1``.
        """
        normal_basis = evaluator.context.basis_at(source.num_limbs)
        raised_digits = None
        for baby in sorted({b for babies in groups.values() for b in babies}):
            members = [
                (
                    sums[giant],
                    self._plaintext(evaluator, diagonals[babies[baby]], giant, scale),
                )
                for giant, babies in groups.items()
                if baby in babies
            ]
            if baby == 0:
                for group, pt in members:
                    pt_poly = pt.to_poly(normal_basis)
                    group.c0.add(source.c0, pt_poly)
                    group.c1.add(source.c1, pt_poly)
                continue
            key = _rotation_key(evaluator, baby)
            if raised_digits is None:
                # ModUp hoisting: one Decomp+ModUp per source ciphertext,
                # whose digits every baby step reuses.
                raised_digits = list(evaluator.raise_digits(source.c1))
            _add_rotated(evaluator, source, raised_digits, baby, key, members)

    @staticmethod
    def _turn(
        evaluator: Evaluator, group: _GroupSums, giant: int, drop: int
    ) -> Tuple[RnsPolynomial, RnsPolynomial, RnsPolynomial]:
        """A giant step's partial sum rotated by ``giant``, left raised.

        Its ``c1`` is brought down (one ModDown), turned and raised again
        (one Decomp+ModUp, a digit at a time) for the key switch, whose
        inner product is returned raised, with the turned raised ``b``,
        for the output's one ModDown pair.  Returns ``(c0, b, a)``.
        """
        key = _rotation_key(evaluator, giant)
        t = evaluator.context.encoder.rotation_automorphism(giant)
        c1 = group.c1.result()
        if group.raised:
            c1 = c1 + mod_down(group.a.result(), drop)
        b, a = evaluator.ksk_inner_product(
            evaluator.raise_digits(c1.automorph(t)), key, c1.num_limbs
        )
        if group.raised:
            b = b + group.b.result().automorph(t)
        return group.c0.result().automorph(t), b, a

    # ------------------------------------------------------------------
    def _apply_bsgs(
        self,
        evaluator: Evaluator,
        inputs: Sequence[Tuple[Ciphertext, Diagonals]],
        scale: float,
    ) -> Ciphertext:
        """The baseline: hoisted baby rotations, full Rotates for the giants."""
        acc = None
        for source, diagonals in inputs:
            groups = self._split(diagonals, "bsgs")
            baby_steps = sorted({b for babies in groups.values() for b in babies if b})
            rotated = (
                evaluator.rotations_hoisted(source, baby_steps)
                if baby_steps
                else {}
            )
            rotated[0] = source
            for giant, babies in groups.items():
                inner = None
                for baby, d in babies.items():
                    term = evaluator.pt_mult(
                        rotated[baby],
                        self._plaintext(evaluator, diagonals[d], giant, scale),
                        rescale=False,
                    )
                    inner = term if inner is None else evaluator.add(inner, term)
                moved = evaluator.rotate(inner, giant) if giant else inner
                acc = moved if acc is None else evaluator.add(acc, moved)
        return acc
