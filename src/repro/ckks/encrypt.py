"""Encryption and decryption."""

from __future__ import annotations

from typing import Optional, Sequence

import numpy as np

from repro.ring import Representation, RnsPolynomial
from repro.ckks.cipher import Ciphertext, Plaintext
from repro.ckks.context import CkksContext
from repro.ckks.keys import PublicKey, SecretKey


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
        e = RnsPolynomial.from_int_coeffs(ctx.sample_error_coeffs(), basis).to_eval()
        m = plaintext.to_poly(basis)
        return Ciphertext(c0=-(a * s) + m + e, c1=a, scale=plaintext.scale)

    def _encrypt_public(self, plaintext: Plaintext, limbs: int) -> Ciphertext:
        ctx = self.context
        basis = ctx.basis_at(limbs)
        # Restrict the full-level public key to the requested basis.
        pk0 = self.public_key.pk0.select_limbs(slice(0, limbs), basis)
        pk1 = self.public_key.pk1.select_limbs(slice(0, limbs), basis)
        u = RnsPolynomial.from_int_coeffs(
            ctx.sample_ternary_coeffs(), basis
        ).to_eval()
        e0 = RnsPolynomial.from_int_coeffs(ctx.sample_error_coeffs(), basis).to_eval()
        e1 = RnsPolynomial.from_int_coeffs(ctx.sample_error_coeffs(), basis).to_eval()
        m = plaintext.to_poly(basis)
        return Ciphertext(
            c0=pk0 * u + e0 + m, c1=pk1 * u + e1, scale=plaintext.scale
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
