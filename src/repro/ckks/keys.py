"""Key material: secret/public keys and hybrid switching keys.

Switching keys follow the Han-Ki structure the paper models (Eq. 2): a
``2 x dnum`` matrix of polynomials over the raised ring ``R_PQ``.  Digit
``i``'s column encrypts ``P * U_i * s_from`` under the decryption key ``s``,
where ``U_i`` is the CRT selector that is 1 on digit ``i``'s moduli and 0 on
every other limb modulus.  Because a congruence system restricted to the
live moduli stays valid, one key serves every ciphertext level.

Key compression (Section 3.2 of the paper): the ``a`` half of every digit is
a uniformly random ring element, so a compressed key stores a PRNG seed in
its place and re-expands the rows on demand, halving key traffic.  Here the
re-expansion is real: a compressed :class:`SwitchingKey` holds only its
``b`` rows and one seed per digit, and regenerates ``a`` (through
:meth:`~repro.ckks.context.CkksContext.sample_uniform_rows`) at every key
switch.  Key generation also records where each row's words end in the
seed's stream, so a level-``l`` switch filters only the ``l + alpha`` rows
it reads.  ``KeyGenerator(compress_keys=False)`` keeps ``a`` materialised,
the uncompressed rung of the performance model.

Key rows are held at the model's word size: residues below ``2**30`` in
4-byte words (:func:`key_dtype`), read in place by the lazily-reduced
inner product of :meth:`SwitchingKey.inner_product`
(:class:`repro.kernels.MulAcc`).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro import kernels
from repro.ring import Representation, RnsBasis, RnsPolynomial
from repro.ckks.context import CkksContext

#: One digit's live key rows as two blocks: the rows of the live ``q_i``
#: and the rows of the special primes.
RowBlocks = Tuple[np.ndarray, np.ndarray]


def key_dtype(basis: RnsBasis) -> np.dtype:
    """Storage dtype of switching-key rows over ``basis``.

    ``uint32`` when the basis stores int64 limbs (every modulus below
    ``2**30``), the 4-byte word of the performance model's 28-bit limbs;
    otherwise the basis' own dtype (``object``).
    """
    return np.dtype(np.uint32) if basis.dtype == np.int64 else basis.dtype


class SecretKey:
    """A ternary secret key, materialisable over any basis of the context."""

    def __init__(self, context: CkksContext, coeffs: List[int]):
        if len(coeffs) != context.degree:
            raise ValueError(
                f"expected {context.degree} coefficients, got {len(coeffs)}"
            )
        if any(c not in (-1, 0, 1) for c in coeffs):
            raise ValueError("secret key coefficients must be ternary")
        self.context = context
        self.coeffs = list(coeffs)
        self._cache: Dict[Tuple[int, ...], RnsPolynomial] = {}

    def poly(self, basis: RnsBasis) -> RnsPolynomial:
        """The secret as an evaluation-form element of the given basis."""
        key = basis.moduli
        poly = self._cache.get(key)
        if poly is None:
            poly = RnsPolynomial.from_int_coeffs(self.coeffs, basis).to_eval()
            self._cache[key] = poly
        return poly


@dataclass
class PublicKey:
    """Standard RLWE public key ``(pk0, pk1) = (-a*s + e, a)`` over ``Q_L``."""

    pk0: RnsPolynomial
    pk1: RnsPolynomial


@dataclass(eq=False)
class SwitchingKey:
    """Hybrid switching key: per digit ``i``, a pair ``(b_i, a_i)`` over ``R_PQ``.

    ``b`` is a ``(dnum, L + alpha, N)`` array of every digit's ``b_i``
    rows over the full raised basis, in :func:`key_dtype` (4-byte words
    over int64 bases).  A compressed key holds one PRNG seed per digit in
    ``seeds`` and no ``a_i``: every use re-expands ``a_i`` from its seed,
    so no uniform rows and no per-level copies stay resident.  An
    uncompressed key holds the ``a_i`` rows in ``a`` instead, shaped and
    typed like ``b``.  Exactly one of ``seeds`` and ``a`` is set, with one
    entry per digit.  ``row_ends`` (compressed keys generated on the
    kernel path) is a ``(dnum, L + alpha)`` int64 array: where each row
    of a digit's seeded stream ends, in 32-bit words, so a re-expansion
    filters only the rows a key switch reads.
    """

    b: np.ndarray
    seeds: Optional[List[int]] = None
    a: Optional[np.ndarray] = None
    row_ends: Optional[np.ndarray] = None

    def __post_init__(self) -> None:
        if (self.seeds is None) == (self.a is None):
            raise ValueError("a switching key holds either seeds or a rows")
        held = self.a if self.seeds is None else self.seeds
        if len(held) != len(self.b):
            raise ValueError(
                f"{len(held)} seeds or a rows for {len(self.b)} digits"
            )
        if self.row_ends is not None and (
            self.seeds is None or self.row_ends.shape != self.b.shape[:2]
        ):
            raise ValueError("row ends need seeds and one end per key row")

    @property
    def dnum(self) -> int:
        return len(self.b)

    @property
    def is_compressed(self) -> bool:
        return self.seeds is not None

    def stored_bytes(self) -> int:
        """Bytes of the residue arrays this key holds.

        A compressed key holds one row set per digit (seeds and row ends
        are not counted); a full key holds two.  Over int64 bases every
        residue is a 4-byte word.
        """
        return self.b.nbytes + (0 if self.a is None else self.a.nbytes)

    def _digit_rows(
        self, digit: int, live_limbs: int, context: CkksContext
    ) -> Tuple[RowBlocks, RowBlocks]:
        """Digit ``digit``'s live ``(b, a)`` rows at level ``live_limbs``.

        Held rows are returned as views.  A compressed key's ``a`` is
        re-expanded: with recorded row ends (and the kernels on), only
        the live rows' words are filtered; otherwise the whole stream is
        expanded and the live rows selected, because the seeded stream
        runs in basis order and the special-prime rows come last.
        """
        top = context.max_limbs
        b = self.b[digit]
        b_rows = (b[:live_limbs], b[top:])
        if self.a is not None:
            a = self.a[digit]
            return b_rows, (a[:live_limbs], a[top:])
        full = context.raised_basis(top)
        live = list(range(live_limbs)) + list(range(top, len(full)))
        seed = self.seeds[digit]
        if self.row_ends is not None and full.fast_path:
            ends = self.row_ends[digit]
            starts = np.concatenate(([0], ends[:-1]))
            a = context.sample_uniform_rows(
                context.raised_basis(live_limbs),
                seed=seed,
                spans=np.stack((starts[live], ends[live]), axis=1),
            )
        else:
            a = context.sample_uniform_rows(full, seed=seed)[live]
        return b_rows, (a[:live_limbs], a[live_limbs:])

    def restricted(
        self, live_limbs: int, context: CkksContext
    ) -> List[Tuple[RnsPolynomial, RnsPolynomial]]:
        """The digits a level-``live_limbs`` decomposition uses, as ``(b_i, a_i)``
        pairs over the live basis ``{q_1..q_l, p_1..p_alpha}``.

        Evaluation-form rows are independent per modulus, so restriction
        is row selection; every returned element owns a fresh matrix in
        the live basis' dtype.  A compressed key re-expands each ``a_i``
        on every call.
        """
        basis = context.raised_basis(live_limbs)
        pairs = []
        for i in range(len(context.digit_index_ranges(live_limbs))):
            b_rows, a_rows = self._digit_rows(i, live_limbs, context)
            pairs.append((
                RnsPolynomial(basis, np.concatenate(b_rows), Representation.EVAL),
                RnsPolynomial(basis, np.concatenate(a_rows), Representation.EVAL),
            ))
        return pairs

    def inner_product(
        self,
        digits: Sequence[RnsPolynomial],
        live_limbs: int,
        context: CkksContext,
    ) -> Tuple[RnsPolynomial, RnsPolynomial]:
        """``sum_i digits[i] * (b_i, a_i)`` over the live raised basis.

        Over int64 bases with the kernels on, each sum is one
        :class:`repro.kernels.MulAcc` that reads the held rows (and each
        re-expanded ``a_i``) in place: a digit's live rows are its first
        ``live_limbs`` rows and its special rows, two contiguous ranges,
        so no key row is copied, widened or re-reduced.  Each sum takes
        one ``np.remainder`` per :data:`repro.kernels.LAZY_PRODUCTS`
        digits and one at the end.  The per-digit ring expression over
        :meth:`restricted` is its reference, and runs for ``object``
        bases and under :func:`repro.kernels.oracle_only`; both return
        the same canonical residues.

        Raises:
            ValueError: for more digits than a level-``live_limbs`` key
                switch uses, or a digit that is not an evaluation-form
                element of the live raised basis.
        """
        used = len(context.digit_index_ranges(live_limbs))
        if len(digits) > used:
            raise ValueError(f"{len(digits)} digits but key has {used}")
        basis = context.raised_basis(live_limbs)
        acc_b = RnsPolynomial.zero(basis)
        acc_a = RnsPolynomial.zero(basis)
        if not basis.fast_path:
            for digit, (b_key, a_key) in zip(
                digits, self.restricted(live_limbs, context)
            ):
                acc_b = acc_b + digit * b_key
                acc_a = acc_a + digit * a_key
            return acc_b, acc_a

        sums = [kernels.MulAcc(acc.limbs, basis.q_col) for acc in (acc_b, acc_a)]
        with kernels.limb_passes(basis.degree):
            for i, digit in enumerate(digits):
                if digit.basis != basis:
                    raise ValueError("operands live over different bases")
                if digit.representation is not Representation.EVAL:
                    raise ValueError(
                        "ring multiplication requires evaluation form"
                    )
                for acc, blocks in zip(
                    sums, self._digit_rows(i, live_limbs, context)
                ):
                    acc.add(digit.limbs, *blocks)
            for acc in sums:
                acc.finish()
        return acc_b, acc_a


class KeyGenerator:
    """Generates secret, public, relinearisation, and Galois keys."""

    def __init__(
        self,
        context: CkksContext,
        compress_keys: bool = True,
        hamming_weight: Optional[int] = None,
    ):
        """Args:
            context: the scheme context.
            compress_keys: store each switching-key digit's ``a`` half as
                a PRNG seed and regenerate it at use (the paper's key
                compression); ``False`` keeps the ``a`` rows materialised.
            hamming_weight: if given, sample a sparse ternary secret with
                exactly this many non-zero coefficients.  Sparse secrets
                bound the ``I(x)`` term in bootstrapping, which keeps the
                EvalMod approximation range (and degree) small.
        """
        self.context = context
        self.compress_keys = compress_keys
        if hamming_weight is None:
            coeffs = context.sample_ternary_coeffs()
        else:
            if not 1 <= hamming_weight <= context.degree:
                raise ValueError(
                    f"hamming_weight must be in [1, {context.degree}]"
                )
            coeffs = [0] * context.degree
            positions = context.rng.sample(range(context.degree), hamming_weight)
            for pos in positions:
                coeffs[pos] = context.rng.choice((-1, 1))
        self.secret_key = SecretKey(context, coeffs)

    # ------------------------------------------------------------------
    def public_key(self) -> PublicKey:
        ctx = self.context
        basis = ctx.basis_at(ctx.max_limbs)
        s = self.secret_key.poly(basis)
        a = RnsPolynomial(
            basis, ctx.sample_uniform_rows(basis), Representation.EVAL
        )
        e = RnsPolynomial.from_int_coeffs(ctx.sample_error_coeffs(), basis).to_eval()
        return PublicKey(pk0=-(a * s) + e, pk1=a)

    # ------------------------------------------------------------------
    def switching_key(self, source_poly: RnsPolynomial) -> SwitchingKey:
        """Key switching *from* the key ``source_poly`` *to* ``secret_key``.

        ``source_poly`` must live over the full raised basis in evaluation
        form (e.g. ``s^2`` for relinearisation, ``automorph(s, t)`` for a
        Galois key).  Each digit's ``b = e - a*s + [P*U_i]*s_from`` is
        written straight into the key's row store.  Over int64 bases with
        the kernels on it is one uint64 expression,
        ``e + a*(q - s) + [P*U_i]*s_from < 2**30 + 2 * 2**60``, reduced
        once; the ring expression is its reference and runs for
        ``object`` bases and under :func:`repro.kernels.oracle_only`.
        Its passes run inside one :func:`repro.kernels.limb_passes` scope.
        """
        ctx = self.context
        basis = ctx.raised_basis(ctx.max_limbs)
        if source_poly.basis != basis:
            raise ValueError("source key must live over the full raised basis")
        s = self.secret_key.poly(basis)
        p_product = ctx.p_product
        shape = (ctx.num_digits, len(basis), ctx.degree)
        b_rows = np.empty(shape, dtype=key_dtype(basis))
        a_rows = None if self.compress_keys else np.empty_like(b_rows)
        seeds = []
        lazy = basis.fast_path
        row_ends = (
            np.empty(shape[:2], dtype=np.int64)
            if self.compress_keys and lazy
            else None
        )
        with kernels.limb_passes(ctx.degree):
            if lazy:
                q = basis.q_col.view(np.uint64)
                # q - s is in [1, q], so a * (q - s) = -a * s (mod q).
                neg_s = (basis.q_col - s.limbs).view(np.uint64)
                source = source_poly.limbs.view(np.uint64)
                term = np.empty(shape[1:], dtype=np.uint64)
            for i in range(ctx.num_digits):
                seed = ctx.rng.randrange(2**62) if self.compress_keys else None
                a = ctx.sample_uniform_rows(
                    basis,
                    seed=seed,
                    ends=None if row_ends is None else row_ends[i],
                )
                e = RnsPolynomial.from_int_coeffs(
                    ctx.sample_error_coeffs(), basis
                ).to_eval()
                selector = p_product * ctx.digit_selector(i)
                if lazy:
                    acc = a.view(np.uint64) * neg_s
                    column = basis.column([selector] * len(basis))
                    acc += np.multiply(source, column.view(np.uint64), out=term)
                    acc += e.limbs.view(np.uint64)
                    np.remainder(acc, q, out=b_rows[i])
                else:
                    a_poly = RnsPolynomial(basis, a, Representation.EVAL)
                    b = -(a_poly * s) + e + source_poly.scalar_mul(selector)
                    b_rows[i] = b.limbs
                if a_rows is not None:
                    a_rows[i] = a
                seeds.append(seed)
        if self.compress_keys:
            return SwitchingKey(b=b_rows, seeds=seeds, row_ends=row_ends)
        return SwitchingKey(b=b_rows, a=a_rows)

    # ------------------------------------------------------------------
    def relinearization_key(self) -> SwitchingKey:
        """Switching key from ``s^2`` to ``s`` (used by ``Mult``)."""
        ctx = self.context
        basis = ctx.raised_basis(ctx.max_limbs)
        s = self.secret_key.poly(basis)
        return self.switching_key(s * s)

    def galois_key(self, t: int) -> SwitchingKey:
        """Switching key from ``s(x^t)`` to ``s`` (used by Rotate/Conjugate)."""
        ctx = self.context
        basis = ctx.raised_basis(ctx.max_limbs)
        s = self.secret_key.poly(basis)
        return self.switching_key(s.automorph(t))

    def rotation_key(self, steps: int) -> SwitchingKey:
        return self.galois_key(self.context.encoder.rotation_automorphism(steps))

    def conjugation_key(self) -> SwitchingKey:
        return self.galois_key(self.context.encoder.conjugation_automorphism)
