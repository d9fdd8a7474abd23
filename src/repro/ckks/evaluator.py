"""The CKKS evaluator: homomorphic operations over ciphertexts.

Implements every primitive of Table 2 of the paper (PtAdd, Add, PtMult,
Mult, Rotate, Conjugate) plus the sub-operations they decompose into
(Decomp, ModUp, KSKInnerProd, ModDown, Automorph, Rescale) and the MAD
algorithmic optimizations:

* ``mult(..., merged_mod_down=True)`` — Fig. 4(c): performs the post-
  key-switch addition in the raised basis (via PModUp) and folds the
  rescale into a single ModDown that divides by ``P * q_l`` at once.
* ``rotations_hoisted`` — classic ModUp hoisting: the digit decomposition
  and ModUp of ``c1`` are shared across many rotations of one ciphertext.
* ``key_switch_raised`` — exposes the intermediate ``[[P*x*s]]`` value so
  linear functions can be evaluated in the raised basis before a single
  deferred ModDown (the paper's ModDown hoisting;
  :class:`repro.ckks.linear.LinearTransform` runs its two halves,
  ``raise_digits`` and ``ksk_inner_product``, once per source and once
  per rotation).

Every key switch runs in a bounded working set (the caching analysis of
the paper's Section 3.1): ``raise_digits`` makes each raised digit when
the inner product reaches it, and the inner product drops it before the
next, so a single switch holds one raised digit at a time.  Only the
hoisted paths hold all of a ciphertext's raised digits, because every
rotation reuses them, and they hand the inner product one rotated copy
at a time.

A plaintext operand is either a vector of slot values, encoded and
NTT'd over every live limb, or a single number.  A number ``c`` at scale
``Delta`` encodes to the sparse polynomial
``round(Re(c) Delta) + round(Im(c) Delta) x^{N/2}`` (``x^{N/2}`` is ``i``
at every slot), which is exactly what encoding ``[c] * n`` gives for a
real ``c`` and ``Delta <= 2**50``.  It costs no encode and no NTT: an
integer scalar per limb, and a product with ``x^{N/2}`` for the
imaginary part.
"""

from __future__ import annotations

import math
import numbers
from typing import Dict, Iterable, Iterator, List, Optional, Sequence, Tuple, Union

from repro.obs import state as obs
from repro.ring import (
    RnsBasis,
    RnsPolynomial,
    mod_down,
    p_mod_up,
    rescale as ring_rescale,
)
from repro.ckks.cipher import Ciphertext, Plaintext
from repro.ckks.context import CkksContext
from repro.ckks.keys import SwitchingKey

#: Relative tolerance when checking that two scales match.  CKKS
#: rescaling divides by primes that only approximate the scaling factor, so
#: deep circuits accumulate per-level scale drift of ~|q - Delta| / Delta;
#: additions across different depths must tolerate that drift (the induced
#: relative message error is bounded by the actual mismatch).
_SCALE_RTOL = 0.05

RaisedPair = Tuple[RnsPolynomial, RnsPolynomial]

#: A plaintext operand: encoded slot values, slot values, or one number
#: for every slot.
PlainValues = Union[Plaintext, Sequence[complex], complex]


def _integer_parts(value: complex, scale: float) -> Tuple[int, int]:
    """``round(Re(value) * scale)`` and ``round(Im(value) * scale)``.

    The coefficients of ``x^0`` and ``x^{N/2}`` in the encoding of
    ``value`` in every slot; both round half to even, as encoding does.
    """
    value = complex(value)
    re, im = value.real * scale, value.imag * scale
    if not (math.isfinite(re) and math.isfinite(im)):
        raise ValueError(
            f"a constant needs a finite value at its scale: {value!r} "
            f"at {scale!r} gives {re!r}, {im!r}"
        )
    return round(re), round(im)


def _accumulate(
    acc: List[RnsPolynomial], ct: Ciphertext, factor: int
) -> List[RnsPolynomial]:
    """``acc + factor * (c0, c1)`` as a two-element list (``[]`` is zero)."""
    terms = [ct.c0.scalar_mul(factor), ct.c1.scalar_mul(factor)]
    return terms if not acc else [a + t for a, t in zip(acc, terms)]


class Evaluator:
    """Homomorphic evaluation engine bound to a context and key set.

    Span labels emitted here (``ckks.Mult``, ``ckks.KeySwitch``, ...) must
    stay constant across runs — cross-run diff alignment
    (:mod:`repro.obs.diff`) keys on the label path.  Volatile values
    (limb counts, digit counts, rotation steps) belong in span
    attributes, not labels.

    Args:
        context: the scheme context.
        relin_key: switching key from ``s^2`` to ``s`` (needed by ``mult``).
        rotation_keys: map from rotation steps to Galois keys.
        conjugation_key: Galois key for slot conjugation.
    """

    def __init__(
        self,
        context: CkksContext,
        relin_key: Optional[SwitchingKey] = None,
        rotation_keys: Optional[Dict[int, SwitchingKey]] = None,
        conjugation_key: Optional[SwitchingKey] = None,
    ):
        self.context = context
        self.relin_key = relin_key
        self.rotation_keys = dict(rotation_keys or {})
        self.conjugation_key = conjugation_key

    # ==================================================================
    # Additive operations
    # ==================================================================
    def add(self, ct1: Ciphertext, ct2: Ciphertext) -> Ciphertext:
        """Homomorphic addition of two ciphertexts."""
        obs.count("ckks.evaluator.add")
        ct1, ct2 = self.align_levels(ct1, ct2)
        self._check_scales(ct1.scale, ct2.scale)
        return Ciphertext(ct1.c0 + ct2.c0, ct1.c1 + ct2.c1, ct1.scale)

    def sub(self, ct1: Ciphertext, ct2: Ciphertext) -> Ciphertext:
        """Homomorphic subtraction."""
        ct1, ct2 = self.align_levels(ct1, ct2)
        self._check_scales(ct1.scale, ct2.scale)
        return Ciphertext(ct1.c0 - ct2.c0, ct1.c1 - ct2.c1, ct1.scale)

    def negate(self, ct: Ciphertext) -> Ciphertext:
        return Ciphertext(-ct.c0, -ct.c1, ct.scale)

    def pt_add(self, ct: Ciphertext, values: PlainValues) -> Ciphertext:
        """Add a plaintext (vector or number); only touches ``c0``."""
        obs.count("ckks.evaluator.pt_add")
        if isinstance(values, numbers.Number):
            re, im = _integer_parts(values, ct.scale)
            c0 = ct.c0.scalar_add(re)
            if im:
                constant = RnsPolynomial.zero(ct.basis).scalar_add(im)
                c0 = c0 + constant.monomial_mul(self.context.degree // 2)
            return Ciphertext(c0, ct.c1, ct.scale)
        pt = self._as_plaintext(values, scale=ct.scale)
        self._check_scales(ct.scale, pt.scale)
        return Ciphertext(ct.c0 + pt.to_poly(ct.basis), ct.c1, ct.scale)

    # ==================================================================
    # Multiplicative operations
    # ==================================================================
    def pt_mult(
        self,
        ct: Ciphertext,
        values: PlainValues,
        rescale: bool = True,
    ) -> Ciphertext:
        """Multiply by a plaintext (vector or number); includes the Rescale
        of Table 2."""
        obs.count("ckks.evaluator.pt_mult")
        product = self._pt_product(ct, values, self.context.scale)
        return self.rescale(product) if rescale else product

    def pt_mult_at(
        self,
        ct: Ciphertext,
        values: Union[Sequence[complex], complex],
        target_scale: float,
    ) -> Ciphertext:
        """Plaintext multiply whose Rescale lands exactly on ``target_scale``.

        The chain primes only approximate ``Delta``, so operands at
        different depths carry drifted scales and their plaintext products
        drift further apart — at bootstrap-sized rings (sparse prime
        population near ``2^logq``) the drift exceeds any reasonable
        addition tolerance.  Encoding ``values`` at
        ``target_scale * q_l / ct.scale`` (``q_l`` being the modulus the
        rescale drops) makes the result's true and declared scales both
        ``target_scale`` regardless of which primes the operand has been
        rescaled by.  A number goes through :meth:`constant_sum_at`.
        """
        if isinstance(values, numbers.Number):
            return self.constant_sum_at([(ct, values)], target_scale)
        if ct.num_limbs < 2:
            raise ValueError(
                "pt_mult_at needs a spare level for its rescale"
            )
        q_drop = ct.basis.moduli[-1]
        pt_scale = target_scale * q_drop / ct.scale
        out = self.rescale(self._pt_product(ct, values, pt_scale))
        return Ciphertext(out.c0, out.c1, target_scale)

    def constant_sum_at(
        self,
        terms: Sequence[Tuple[Ciphertext, complex]],
        target_scale: float,
    ) -> Ciphertext:
        """``sum_k c_k * ct_k`` with one Rescale landing exactly on ``target_scale``.

        Every ``ct_k`` is first dropped to the fewest limbs among them,
        which is free, so one prime ``q`` (the last of that level) is the
        rescale's for every term.  ``c_k`` becomes the integer
        ``round(c_k * target_scale * q / ct_k.scale)`` (its imaginary
        part a multiple of ``x^{N/2}``), so each product's true and
        declared scales are both ``target_scale * q`` whatever primes
        ``ct_k`` has been rescaled by.  The products add exactly, and one
        rescale ends the sum on ``target_scale``, a level below the
        shallowest term.
        """
        limbs = min(ct.num_limbs for ct, _ in terms)
        if limbs < 2:
            raise ValueError(
                "constant_sum_at needs a spare level for its rescale"
            )
        dropped = [(self.reduce_level(ct, limbs), value) for ct, value in terms]
        q_drop = dropped[0][0].basis.moduli[-1]
        c0, c1 = self._constant_combination([
            (ct, *_integer_parts(value, target_scale * q_drop / ct.scale))
            for ct, value in dropped
        ])
        out = self.rescale(Ciphertext(c0, c1, target_scale * q_drop))
        return Ciphertext(out.c0, out.c1, target_scale)

    def match_scale(
        self,
        ct: Ciphertext,
        target_scale: float,
        rtol: Optional[float] = None,
    ) -> Ciphertext:
        """Bring ``ct`` to ``target_scale``, spending one level if needed.

        A no-op while the declared scale is already within ``rtol``
        (default :data:`_SCALE_RTOL`, the tolerance of additions) — the
        induced message error is bounded by the actual mismatch, so the
        tolerance must be chosen against the caller's error budget:
        EvalMod's Chebyshev recursion works on O(1) basis values whose
        useful output is ~1e-3, so it passes a far tighter ``rtol`` than
        the additive 5% default.  Beyond the
        tolerance it multiplies by the constant one via
        :meth:`pt_mult_at`, which costs one level off ``ct``'s chain —
        the caller should therefore pass the *higher-level* operand of
        an upcoming addition.
        """
        rtol = _SCALE_RTOL if rtol is None else rtol
        if math.isclose(ct.scale, target_scale, rel_tol=rtol):
            return ct
        return self.pt_mult_at(ct, 1.0, target_scale)

    def mult_by_i(self, ct: Ciphertext) -> Ciphertext:
        """Multiply every slot by ``i``: the product with ``x^{N/2}``.

        Slot ``j`` evaluates at ``zeta^{5^j}`` with ``5^j = 1 (mod 4)``,
        where ``x^{N/2}`` is ``i``.  Exact, so it keeps the scale and
        costs no level.
        """
        half = self.context.degree // 2
        return Ciphertext(
            ct.c0.monomial_mul(half), ct.c1.monomial_mul(half), ct.scale
        )

    def mult(
        self,
        ct1: Ciphertext,
        ct2: Ciphertext,
        rescale: bool = True,
        merged_mod_down: bool = False,
    ) -> Ciphertext:
        """Homomorphic multiplication with relinearisation.

        With ``merged_mod_down`` the key-switch output stays in the raised
        basis, the tensor terms are lifted with PModUp, and one ModDown
        divides by ``P * q_l`` — saving ``l`` per-coefficient products and a
        full orientation switch exactly as in Fig. 4 of the paper (requires
        ``rescale=True``).
        """
        if self.relin_key is None:
            raise ValueError("mult requires a relinearisation key")
        if merged_mod_down and not rescale:
            raise ValueError("merged_mod_down only makes sense with rescale")
        obs.count("ckks.evaluator.mult")
        with obs.span("ckks.Mult", limbs=min(ct1.num_limbs, ct2.num_limbs)):
            ct1, ct2 = self.align_levels(ct1, ct2)
            scale = ct1.scale * ct2.scale
            if merged_mod_down:
                return self._mult_merged(ct1, ct2, scale)

            # d2 = c1 * c1' is switched before d0 and d1 are formed, so
            # they never sit beside the switch's raised digits.
            u, v = self.key_switch(ct1.c1 * ct2.c1, self.relin_key)
            d0 = ct1.c0 * ct2.c0 + u
            d1 = ct1.c0 * ct2.c1 + ct1.c1 * ct2.c0 + v
            result = Ciphertext(d0, d1, scale)
            return self.rescale(result) if rescale else result

    def _mult_merged(
        self, ct1: Ciphertext, ct2: Ciphertext, scale: float
    ) -> Ciphertext:
        ctx = self.context
        b_raised, a_raised = self.key_switch_raised(
            ct1.c1 * ct2.c1, self.relin_key
        )
        # Lift the tensor terms into the raised basis (Algorithm 5) and add
        # there — the ciphertext is still additively homomorphic.
        specials = ctx.special_moduli
        b_raised = b_raised + p_mod_up(ct1.c0 * ct2.c0, specials)
        a_raised = a_raised + p_mod_up(
            ct1.c0 * ct2.c1 + ct1.c1 * ct2.c0, specials
        )
        # One ModDown drops the special limbs *and* the rescale limb,
        # dividing by P * q_l in a single pass.
        drop = len(specials) + 1
        dropped_limb = ct1.basis.moduli[-1]
        perm_b = self._rescale_limb_last(b_raised, len(specials))
        perm_a = self._rescale_limb_last(a_raised, len(specials))
        c0 = mod_down(perm_b, drop)
        c1 = mod_down(perm_a, drop)
        return Ciphertext(c0, c1, scale / dropped_limb)

    @staticmethod
    def _rescale_limb_last(poly: RnsPolynomial, num_specials: int) -> RnsPolynomial:
        """Reorder limbs so the rescale limb ``q_l`` sits after the specials.

        ``mod_down`` drops a suffix; the merged ModDown must drop
        ``{q_l, p_1..p_k}``, so ``[q_1..q_l, p_1..p_k]`` becomes
        ``[q_1..q_{l-1}, p_1..p_k, q_l]``.  Row moves are free bookkeeping
        in evaluation form.
        """
        q_last = poly.num_limbs - num_specials - 1
        order = (
            list(range(q_last))
            + list(range(q_last + 1, poly.num_limbs))
            + [q_last]
        )
        basis = RnsBasis(
            poly.basis.degree, [poly.basis.moduli[i] for i in order]
        )
        return poly.select_limbs(order, basis)

    # ==================================================================
    # Rescale and level management
    # ==================================================================
    def rescale(self, ct: Ciphertext) -> Ciphertext:
        """Divide by the last limb modulus, dropping one level."""
        dropped = ct.basis.moduli[-1]
        return Ciphertext(
            ring_rescale(ct.c0), ring_rescale(ct.c1), ct.scale / dropped
        )

    def reduce_level(self, ct: Ciphertext, limbs: int) -> Ciphertext:
        """Drop limbs without scaling (plain modulus reduction)."""
        if not 1 <= limbs <= ct.num_limbs:
            raise ValueError(
                f"cannot reduce a {ct.num_limbs}-limb ciphertext to {limbs}"
            )
        if limbs == ct.num_limbs:
            return ct
        basis = self.context.basis_at(limbs)
        return Ciphertext(
            ct.c0.select_limbs(slice(0, limbs), basis),
            ct.c1.select_limbs(slice(0, limbs), basis),
            ct.scale,
        )

    def align_levels(
        self, ct1: Ciphertext, ct2: Ciphertext
    ) -> Tuple[Ciphertext, Ciphertext]:
        """Bring both ciphertexts to the smaller of the two limb counts."""
        limbs = min(ct1.num_limbs, ct2.num_limbs)
        return self.reduce_level(ct1, limbs), self.reduce_level(ct2, limbs)

    # ==================================================================
    # Key switching
    # ==================================================================
    def _digit(self, poly: RnsPolynomial, index_range: range) -> RnsPolynomial:
        """The rows ``index_range`` of ``poly`` over their own basis, copied."""
        rows = slice(index_range.start, index_range.stop)
        basis = RnsBasis(self.context.degree, poly.basis.moduli[rows])
        return poly.select_limbs(rows, basis)

    def decompose(self, poly: RnsPolynomial) -> List[RnsPolynomial]:
        """Split a ciphertext polynomial into key-switching digits."""
        with obs.span("ckks.Decomp", limbs=poly.num_limbs):
            return [
                self._digit(poly, index_range)
                for index_range in self.context.digit_index_ranges(poly.num_limbs)
            ]

    def raise_digit(
        self, digit: RnsPolynomial, target: RnsBasis
    ) -> RnsPolynomial:
        """ModUp a digit to ``target``, the raised basis.

        :func:`repro.ring.mod_up` writes the raised digit once, in
        ``target``'s row order, with the digit's own rows between the
        lower and the higher limbs.
        """
        from repro.ring import mod_up

        return mod_up(digit, target)

    def raise_digits(self, poly: RnsPolynomial) -> Iterator[RnsPolynomial]:
        """Decomp + ModUp of every digit (the hoistable prefix of KeySwitch).

        A stream: each digit is cut from ``poly`` and raised when the
        iterator reaches it, so :meth:`ksk_inner_product` holds one raised
        digit at a time.  A hoisting caller, which reuses the digits for
        every rotation, holds them all with ``list``.
        """
        target = self.context.raised_basis(poly.num_limbs)
        return (
            self._raised_digit(poly, index_range, target)
            for index_range in self.context.digit_index_ranges(poly.num_limbs)
        )

    def _raised_digit(
        self, poly: RnsPolynomial, index_range: range, target: RnsBasis
    ) -> RnsPolynomial:
        with obs.span("ckks.ModUp", limbs=len(index_range)):
            return self.raise_digit(self._digit(poly, index_range), target)

    def ksk_inner_product(
        self,
        raised_digits: Iterable[RnsPolynomial],
        key: SwitchingKey,
        live_limbs: int,
    ) -> RaisedPair:
        """Accumulate ``sum_i d_i * ksk_i`` over the raised basis.

        :meth:`SwitchingKey.inner_product`: one lazily-reduced uint64
        multiply-accumulate over the key's 4-byte rows, with the
        per-digit ring expression as its reference.  ``raised_digits``
        may be a stream (:meth:`raise_digits`, or rotated copies of held
        digits); each digit is dropped before the next is made.
        """
        digits = len(self.context.digit_index_ranges(live_limbs))
        with obs.span("ckks.KSKInnerProd", digits=digits):
            return key.inner_product(raised_digits, live_limbs, self.context)

    def key_switch_raised(
        self, poly: RnsPolynomial, key: SwitchingKey
    ) -> RaisedPair:
        """KeySwitch up to (but not including) the final ModDown pair.

        Returns the intermediate ``[[P * x * s_from]]`` over ``R_PQ`` —
        the value the paper's "linear functions in the raised basis"
        optimizations operate on.  The digits are raised as the inner
        product consumes them, so the switch holds its two raised sums
        and one raised digit (with one re-expanded ``a`` block) at a time.
        """
        return self.ksk_inner_product(
            self.raise_digits(poly), key, poly.num_limbs
        )

    def mod_down_pair(self, pair: RaisedPair) -> Tuple[RnsPolynomial, RnsPolynomial]:
        """The deferred ModDown pair finishing a (possibly hoisted) KeySwitch."""
        with obs.span("ckks.ModDown", polys=2):
            drop = len(self.context.special_moduli)
            return mod_down(pair[0], drop), mod_down(pair[1], drop)

    def key_switch(
        self, poly: RnsPolynomial, key: SwitchingKey
    ) -> Tuple[RnsPolynomial, RnsPolynomial]:
        """Full KeySwitch (Algorithm 3): Decomp, ModUp, inner product, ModDown.

        Used by relinearisation, Rotate and Conjugate.  Each digit is
        decomposed and raised on demand (:meth:`key_switch_raised`), so
        the switch never holds more than one raised digit.
        """
        obs.count("ckks.evaluator.key_switch")
        with obs.span("ckks.KeySwitch", limbs=poly.num_limbs):
            return self.mod_down_pair(self.key_switch_raised(poly, key))

    # ==================================================================
    # Galois operations
    # ==================================================================
    def _galois(self, ct: Ciphertext, t: int, key: SwitchingKey) -> Ciphertext:
        # c0 is turned after the switch, so it never sits beside a raised
        # digit.
        u, v = self.key_switch(ct.c1.automorph(t), key)
        return Ciphertext(ct.c0.automorph(t) + u, v, ct.scale)

    def rotate(
        self, ct: Ciphertext, steps: int, key: Optional[SwitchingKey] = None
    ) -> Ciphertext:
        """Rotate plaintext slots left by ``steps``."""
        steps = steps % self.context.slots
        if steps == 0:
            return ct
        if key is None:
            key = self.rotation_keys.get(steps)
        if key is None:
            raise ValueError(f"no rotation key for {steps} steps")
        obs.count("ckks.evaluator.rotate")
        with obs.span("ckks.Rotate", steps=steps, limbs=ct.num_limbs):
            t = self.context.encoder.rotation_automorphism(steps)
            return self._galois(ct, t, key)

    def conjugate(
        self, ct: Ciphertext, key: Optional[SwitchingKey] = None
    ) -> Ciphertext:
        """Complex-conjugate every plaintext slot."""
        key = key if key is not None else self.conjugation_key
        if key is None:
            raise ValueError("no conjugation key available")
        obs.count("ckks.evaluator.conjugate")
        with obs.span("ckks.Conjugate", limbs=ct.num_limbs):
            t = self.context.encoder.conjugation_automorphism
            return self._galois(ct, t, key)

    def rotations_hoisted(
        self, ct: Ciphertext, steps_list: Sequence[int]
    ) -> Dict[int, Ciphertext]:
        """Many rotations of one ciphertext sharing a single Decomp+ModUp.

        Classic ModUp hoisting [16, 22]: the expensive digit raise of ``c1``
        is computed once; each rotation then costs only automorphisms, one
        inner product, and the ModDown pair.  The raised digits are held
        for every rotation; each rotation's inner product turns them one
        at a time, so it holds one rotated copy beside them.
        """
        obs.count("ckks.evaluator.rotations_hoisted")
        with obs.span(
            "ckks.RotationsHoisted",
            rotations=len(steps_list),
            limbs=ct.num_limbs,
        ):
            return self._rotations_hoisted(ct, steps_list)

    def _rotations_hoisted(
        self, ct: Ciphertext, steps_list: Sequence[int]
    ) -> Dict[int, Ciphertext]:
        raised_digits = list(self.raise_digits(ct.c1))
        results: Dict[int, Ciphertext] = {}
        for steps in steps_list:
            steps = steps % self.context.slots
            if steps == 0:
                results[0] = ct
                continue
            key = self.rotation_keys.get(steps)
            if key is None:
                raise ValueError(f"no rotation key for {steps} steps")
            t = self.context.encoder.rotation_automorphism(steps)
            # One expression: the raised pair is freed by its ModDown, not
            # kept into the next rotation.
            u, v = self.mod_down_pair(
                self.ksk_inner_product(
                    (d.automorph(t) for d in raised_digits), key, ct.num_limbs
                )
            )
            results[steps] = Ciphertext(ct.c0.automorph(t) + u, v, ct.scale)
        return results

    # ==================================================================
    # Helpers
    # ==================================================================
    def _pt_product(
        self, ct: Ciphertext, values: PlainValues, scale: float
    ) -> Ciphertext:
        """``ct`` times the plaintext ``values`` encoded at ``scale``, unrescaled.

        A :class:`Plaintext` keeps its own scale; a number is the sparse
        constant polynomial of the module docstring.
        """
        if isinstance(values, numbers.Number):
            c0, c1 = self._constant_combination(
                [(ct, *_integer_parts(values, scale))]
            )
            return Ciphertext(c0, c1, ct.scale * scale)
        pt = self._as_plaintext(values, scale)
        pt_poly = pt.to_poly(ct.basis)
        return Ciphertext(ct.c0 * pt_poly, ct.c1 * pt_poly, ct.scale * pt.scale)

    def _constant_combination(
        self, terms: Sequence[Tuple[Ciphertext, int, int]]
    ) -> List[RnsPolynomial]:
        """``sum_k ct_k * (re_k + im_k x^{N/2})`` as ``[c0, c1]``.

        The ``ct_k`` share one basis.  The imaginary parts are summed
        first, so the sum meets ``x^{N/2}`` once.
        """
        real: List[RnsPolynomial] = []
        imag: List[RnsPolynomial] = []
        for ct, re, im in terms:
            if re or not im:
                real = _accumulate(real, ct, re)
            if im:
                imag = _accumulate(imag, ct, im)
        if not imag:
            return real
        half = self.context.degree // 2
        turned = [poly.monomial_mul(half) for poly in imag]
        return turned if not real else [r + t for r, t in zip(real, turned)]

    def _as_plaintext(
        self, values: Union[Plaintext, Sequence[complex]], scale: float
    ) -> Plaintext:
        if isinstance(values, Plaintext):
            return values
        return Plaintext(self.context.encoder.encode(values, scale), scale)

    def _check_scales(self, s1: float, s2: float) -> None:
        if not math.isclose(s1, s2, rel_tol=_SCALE_RTOL):
            raise ValueError(f"scale mismatch: {s1} vs {s2}")

