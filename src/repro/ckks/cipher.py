"""Plaintext and ciphertext containers."""

from __future__ import annotations

from dataclasses import dataclass
from typing import List

from repro.ring import Representation, RnsPolynomial
from repro.ckks.encoding import check_scale


@dataclass
class Plaintext:
    """An encoded message: integer coefficients at a known scaling factor."""

    coeffs: List[int]
    scale: float

    def __post_init__(self) -> None:
        check_scale(self.scale, "Plaintext scale")

    @property
    def degree(self) -> int:
        return len(self.coeffs)

    def to_poly(self, basis) -> RnsPolynomial:
        """Materialise the plaintext over ``basis`` in evaluation form."""
        return RnsPolynomial.from_int_coeffs(self.coeffs, basis).to_eval()


@dataclass
class Ciphertext:
    """A CKKS ciphertext ``(c0, c1)`` decrypting to ``c0 + c1*s``.

    Both components are stored in evaluation representation over the same
    basis; ``scale`` is the plaintext scaling factor ``Delta`` the encoded
    message currently carries.
    """

    c0: RnsPolynomial
    c1: RnsPolynomial
    scale: float

    def __post_init__(self) -> None:
        if self.c0.basis != self.c1.basis:
            raise ValueError("ciphertext components live over different bases")
        if self.c0.representation is not Representation.EVAL:
            raise ValueError("ciphertext components must be in evaluation form")
        if self.c1.representation is not Representation.EVAL:
            raise ValueError("ciphertext components must be in evaluation form")
        check_scale(self.scale, "Ciphertext scale")

    @property
    def num_limbs(self) -> int:
        """Current number of RNS limbs (the paper's ``l``)."""
        return self.c0.num_limbs

    @property
    def basis(self):
        return self.c0.basis

    def clone(self) -> "Ciphertext":
        return Ciphertext(self.c0.clone(), self.c1.clone(), self.scale)
