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
``b`` polynomials and one seed per digit, and regenerates ``a`` (through
:meth:`~repro.ckks.context.CkksContext.sample_uniform_rows`) at every key
switch.  ``KeyGenerator(compress_keys=False)`` keeps ``a`` materialised,
the uncompressed rung of the performance model.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

from repro.ring import Representation, RnsBasis, RnsPolynomial
from repro.ckks.context import CkksContext


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


@dataclass
class SwitchingKey:
    """Hybrid switching key: per digit ``i``, a pair ``(b_i, a_i)`` over ``R_PQ``.

    ``b`` holds every digit's ``b_i`` over the full raised basis.  A
    compressed key holds one PRNG seed per digit in ``seeds`` and no
    ``a_i``: :meth:`restricted` re-expands ``a_i`` from its seed at every
    use, so no uniform rows and no per-level copies stay resident.  An
    uncompressed key holds the ``a_i`` in ``a`` instead.  Exactly one of
    ``seeds`` and ``a`` is set, with one entry per digit.
    """

    b: List[RnsPolynomial]
    seeds: Optional[List[int]] = None
    a: Optional[List[RnsPolynomial]] = None

    def __post_init__(self) -> None:
        if (self.seeds is None) == (self.a is None):
            raise ValueError("a switching key holds either seeds or a rows")
        held = self.a if self.seeds is None else self.seeds
        if len(held) != len(self.b):
            raise ValueError(
                f"{len(held)} seeds or a rows for {len(self.b)} digits"
            )

    @property
    def dnum(self) -> int:
        return len(self.b)

    @property
    def is_compressed(self) -> bool:
        return self.seeds is not None

    def stored_bytes(self) -> int:
        """Bytes of the residue matrices this key holds.

        A compressed key holds one polynomial per digit (seeds are not
        counted); a full key holds two.
        """
        return sum(poly.limbs.nbytes for poly in self.b + (self.a or []))

    def restricted(
        self, live_limbs: int, context: CkksContext
    ) -> List[Tuple[RnsPolynomial, RnsPolynomial]]:
        """The digits a level-``live_limbs`` decomposition uses, as ``(b_i, a_i)``
        pairs over the live basis ``{q_1..q_l, p_1..p_alpha}``.

        Evaluation-form rows are independent per modulus, so restriction
        is row selection; every returned element owns a fresh copy.  A
        compressed key re-expands each ``a_i`` over the full raised basis
        (the seeded stream runs in basis order and the special-prime rows
        come last) before selecting its live rows.
        """
        full = context.raised_basis(context.max_limbs)
        basis = context.raised_basis(live_limbs)
        keep = list(range(live_limbs)) + list(
            range(context.max_limbs, len(full))
        )
        pairs = []
        for i in range(len(context.digit_index_ranges(live_limbs))):
            if self.a is None:
                rows = context.sample_uniform_rows(full, seed=self.seeds[i])
                a = RnsPolynomial(basis, rows[keep], Representation.EVAL)
            else:
                a = self.a[i].select_limbs(keep, basis)
            pairs.append((self.b[i].select_limbs(keep, basis), a))
        return pairs


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
        Galois key).
        """
        ctx = self.context
        basis = ctx.raised_basis(ctx.max_limbs)
        if source_poly.basis != basis:
            raise ValueError("source key must live over the full raised basis")
        s = self.secret_key.poly(basis)
        p_product = ctx.p_product
        b_polys, a_polys, seeds = [], [], []
        for i in range(ctx.num_digits):
            seed = ctx.rng.randrange(2**62) if self.compress_keys else None
            a = RnsPolynomial(
                basis,
                ctx.sample_uniform_rows(basis, seed=seed),
                Representation.EVAL,
            )
            e = RnsPolynomial.from_int_coeffs(
                ctx.sample_error_coeffs(), basis
            ).to_eval()
            selector = p_product * ctx.digit_selector(i)
            b_polys.append(-(a * s) + e + source_poly.scalar_mul(selector))
            a_polys.append(a)
            seeds.append(seed)
        if self.compress_keys:
            return SwitchingKey(b=b_polys, seeds=seeds)
        return SwitchingKey(b=b_polys, a=a_polys)

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
