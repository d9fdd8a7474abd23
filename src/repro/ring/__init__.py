"""RNS polynomial-ring layer: bases, ring elements, and basis-change ops.

This layer implements, with exact integer arithmetic, the machinery the
performance model (:mod:`repro.perf`) only *counts*: residue-number-system
polynomials over ``Z_q[x]/(x^N + 1)``, the fast basis conversion ``NewLimb``
(Eq. 1 of the paper), and the ``ModUp`` / ``ModDown`` / ``Rescale`` /
``PModUp`` algorithms (Algorithms 1, 2 and 5).
"""

from repro.ring.basis import RnsBasis
from repro.ring.polynomial import ProductSum, Representation, RnsPolynomial
from repro.ring.conversion import (
    mod_down,
    mod_up,
    new_limb,
    p_mod_up,
    rescale,
)

__all__ = [
    "ProductSum",
    "RnsBasis",
    "Representation",
    "RnsPolynomial",
    "new_limb",
    "mod_up",
    "mod_down",
    "rescale",
    "p_mod_up",
]
