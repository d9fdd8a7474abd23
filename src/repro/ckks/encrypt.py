"""Encryption and decryption.

Both encryptions lift the message and the noise that joins it in ``c0``
as one integer vector, ``m + e``, so they share one forward NTT: the
NTT is linear mod ``q``, and ``(m + e) mod q`` has the residues of
``m mod q + e mod q``.  Public-key encryption runs three NTTs (``u``,
``m + e0``, ``e1``) and symmetric encryption one (``m + e``); the
ciphertexts equal the unfused expressions' bit for bit.
"""

from __future__ import annotations

from typing import List, Optional, Sequence, Union

import numpy as np

from repro.ring import Representation, RnsPolynomial
from repro.ckks.cipher import Ciphertext, Plaintext
from repro.ckks.context import CkksContext
from repro.ckks.keys import PublicKey, SecretKey

#: Two int64 vectors below this magnitude add without wrapping.
_SUM_BOUND = 2**62


def _with_noise(
    coeffs: Sequence[int], noise: Sequence[int]
) -> Union[np.ndarray, List[int]]:
    """The integer vector ``coeffs + noise``, exact at any width.

    One int64 add when both vectors fit int64 below ``2**62`` in
    magnitude, where the sum cannot wrap; the Python-int comprehension
    otherwise.
    """
    if len(coeffs) != len(noise):
        raise ValueError(f"expected {len(noise)} coefficients, got {len(coeffs)}")
    try:
        a = np.asarray(coeffs, dtype=np.int64)
        b = np.asarray(noise, dtype=np.int64)
    except OverflowError:
        pass
    else:
        if all(-_SUM_BOUND < v.min() and v.max() < _SUM_BOUND for v in (a, b)):
            return a + b
    return [int(x) + int(y) for x, y in zip(coeffs, noise)]


class Encryptor:
    """Encrypts plaintexts under either the secret or the public key."""

    def __init__(
        self,
        context: CkksContext,
        secret_key: Optional[SecretKey] = None,
        public_key: Optional[PublicKey] = None,
    ):
        if secret_key is None and public_key is None:
            raise ValueError("need a secret key or a public key to encrypt")
        self.context = context
        self.secret_key = secret_key
        self.public_key = public_key

    # ------------------------------------------------------------------
    def encode(self, values: Sequence[complex], scale: float = None) -> Plaintext:
        scale = self.context.scale if scale is None else scale
        return Plaintext(self.context.encoder.encode(values, scale), scale)

    def encrypt(self, plaintext: Plaintext, limbs: int = None) -> Ciphertext:
        """Encrypt an encoded plaintext at ``limbs`` limbs (default: max)."""
        limbs = self.context.max_limbs if limbs is None else limbs
        if self.secret_key is not None:
            return self._encrypt_symmetric(plaintext, limbs)
        return self._encrypt_public(plaintext, limbs)

    def encrypt_values(
        self, values: Sequence[complex], scale: float = None, limbs: int = None
    ) -> Ciphertext:
        """Encode then encrypt in one step."""
        return self.encrypt(self.encode(values, scale), limbs)

    # ------------------------------------------------------------------
    def _encrypt_symmetric(self, plaintext: Plaintext, limbs: int) -> Ciphertext:
        ctx = self.context
        basis = ctx.basis_at(limbs)
        s = self.secret_key.poly(basis)
        a = RnsPolynomial(
            basis, ctx.sample_uniform_rows(basis), Representation.EVAL
        )
        m_e = _with_noise(plaintext.coeffs, ctx.sample_error_coeffs())
        c0 = RnsPolynomial.from_int_coeffs(m_e, basis).to_eval() - a * s
        return Ciphertext(c0=c0, c1=a, scale=plaintext.scale)

    def _encrypt_public(self, plaintext: Plaintext, limbs: int) -> Ciphertext:
        ctx = self.context
        basis = ctx.basis_at(limbs)
        u = RnsPolynomial.from_int_coeffs(
            ctx.sample_ternary_coeffs(), basis
        ).to_eval()
        m_e0 = RnsPolynomial.from_int_coeffs(
            _with_noise(plaintext.coeffs, ctx.sample_error_coeffs()), basis
        ).to_eval()
        e1 = RnsPolynomial.from_int_coeffs(ctx.sample_error_coeffs(), basis).to_eval()
        # The full-level public key's first `limbs` rows, read in place.
        pk0 = self.public_key.pk0.prefix_view(basis)
        pk1 = self.public_key.pk1.prefix_view(basis)
        return Ciphertext(
            c0=pk0 * u + m_e0, c1=pk1 * u + e1, scale=plaintext.scale
        )


class Decryptor:
    """Decrypts and decodes ciphertexts with the secret key."""

    def __init__(self, context: CkksContext, secret_key: SecretKey):
        self.context = context
        self.secret_key = secret_key

    def decrypt(self, ciphertext: Ciphertext) -> Plaintext:
        """Raw decryption: ``m = c0 + c1 * s`` (centered coefficients)."""
        s = self.secret_key.poly(ciphertext.basis)
        message = ciphertext.c0 + ciphertext.c1 * s
        return Plaintext(message.to_int_coeffs(), ciphertext.scale)

    def decode(self, plaintext: Plaintext) -> np.ndarray:
        return self.context.encoder.decode(plaintext.coeffs, plaintext.scale)

    def decrypt_values(self, ciphertext: Ciphertext) -> np.ndarray:
        """Decrypt and decode to complex slot values."""
        return self.decode(self.decrypt(ciphertext))
