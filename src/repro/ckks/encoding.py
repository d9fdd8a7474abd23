"""CKKS plaintext encoding via the canonical embedding.

A CKKS plaintext packs ``n = N/2`` complex numbers into the slots of a ring
element.  Slot ``j`` holds the evaluation of the (integer-coefficient)
polynomial at the primitive ``2N``-th root of unity ``zeta^{e_j}`` with
``e_j = 5^j mod 2N``; the other half of the roots carry the complex
conjugates, which is what makes real coefficient vectors sufficient.

Slot rotations and conjugation are Galois automorphisms:

* rotate left by ``r`` slots  <->  ``f(x) -> f(x^{5^r mod 2N})``
* conjugate all slots         <->  ``f(x) -> f(x^{2N-1})``
"""

from __future__ import annotations

import math
from typing import List, Sequence

import numpy as np

from repro import kernels

#: Coefficients below this magnitude round through int64.
_INT64_ROUND_BOUND = 2.0**62


def check_scale(scale: float, what: str) -> float:
    """``scale`` if it is finite and positive; else a ``ValueError`` naming it."""
    if not 0 < scale < math.inf:  # NaN fails both comparisons
        raise ValueError(f"{what} must be finite and positive, got {scale!r}")
    return scale


class Encoder:
    """Encode/decode complex slot vectors to/from integer coefficients.

    Args:
        degree: ring degree ``N`` (power of two).
        default_scale: scaling factor ``Delta`` applied when none is given.
    """

    def __init__(self, degree: int, default_scale: float):
        if degree < 4 or degree & (degree - 1):
            raise ValueError(f"degree must be a power of two >= 4, got {degree}")
        self.degree = degree
        self.slots = degree // 2
        self.default_scale = check_scale(default_scale, "Encoder default_scale")
        two_n = 2 * degree
        self.rot_group = [pow(5, j, two_n) for j in range(self.slots)]
        # The slot exponents e_j = 5^j mod 2N are odd, so evaluating at
        # zeta^{e_j} is reading the odd-exponent outputs of a length-N
        # twisted FFT: f(zeta^{2i+1}) = sum_k (c_k zeta^k) omega^{ik} with
        # omega = zeta^2 the primitive N-th root.  embed/project therefore
        # run in O(N log N) through numpy's FFT — the dense (slots x N)
        # Vandermonde matrix this replaces cost O(N^2) memory and time and
        # capped the functional stack at small N.
        self._slot_index = np.asarray(
            [(e - 1) // 2 for e in self.rot_group], dtype=np.intp
        )
        k = np.arange(degree)
        self._zeta_pow = np.exp(1j * np.pi * k / degree)  # zeta^k
        self._zeta_pow_conj = self._zeta_pow.conj()

    # ------------------------------------------------------------------
    def embed(self, values: Sequence[complex]) -> np.ndarray:
        """Real coefficient vector (unrounded, scale 1) embedding ``values``.

        This is the exact inverse of :meth:`project`; both are used by the
        bootstrapping matrices as well as by encode/decode.
        """
        z = np.asarray(values, dtype=np.complex128)
        if z.shape != (self.slots,):
            raise ValueError(f"expected {self.slots} slot values, got {z.shape}")
        # c = (2/N) Re(V^H z): valid because the full 2N-th-root Vandermonde
        # (our rows plus their conjugates) is orthogonal with norm N.  V^H z
        # is the adjoint of the select-from-twisted-FFT evaluation: scatter
        # the slot values to their odd-root indices and run a forward FFT.
        u = np.zeros(self.degree, dtype=np.complex128)
        u[self._slot_index] = z
        return (2.0 / self.degree) * (self._zeta_pow_conj * np.fft.fft(u)).real

    def project(self, coeffs: Sequence[float]) -> np.ndarray:
        """Slot values of a real coefficient vector (scale 1)."""
        c = np.asarray(coeffs, dtype=np.float64)
        if c.shape != (self.degree,):
            raise ValueError(f"expected {self.degree} coefficients, got {c.shape}")
        # f(zeta^{2i+1}) for all i via the twisted FFT (ifft carries the
        # e^{+2*pi*i*ik/N} kernel), then select the slot exponents.
        spectrum = np.fft.ifft(self._zeta_pow * c) * self.degree
        return spectrum[self._slot_index]

    # ------------------------------------------------------------------
    def encode(
        self, values: Sequence[complex], scale: float = None
    ) -> List[int]:
        """Round ``Delta * embed(values)`` to integer coefficients.

        Defined as ``[int(round(c)) for c in real_coeffs]``, which runs
        under :func:`repro.kernels.oracle_only` and when a coefficient
        reaches ``2**62`` in magnitude (Python ints stay exact there).
        Otherwise ``np.rint`` rounds the whole vector: like ``round`` it
        rounds half to even, so the ints are the same.  A non-finite
        coefficient (from a non-finite slot value, or an overflowing
        scale) raises ``ValueError`` on both paths.
        """
        if scale is None:
            scale = self.default_scale
        else:
            check_scale(scale, "encode scale")
        real_coeffs = self.embed(values) * scale
        magnitude = float(np.max(np.abs(real_coeffs)))
        if not math.isfinite(magnitude):
            raise ValueError(
                "encode needs finite coefficients: the slot values or the "
                f"scale {scale!r} give {magnitude}"
            )
        if kernels.enabled() and magnitude < _INT64_ROUND_BOUND:
            coeffs: List[int] = np.rint(real_coeffs).astype(np.int64).tolist()
            return coeffs
        return [int(round(c)) for c in real_coeffs]

    def decode(self, coeffs: Sequence[int], scale: float = None) -> np.ndarray:
        """Recover the slot values of an integer coefficient vector."""
        scale = self.default_scale if scale is None else scale
        return self.project([float(c) for c in coeffs]) / scale

    # ------------------------------------------------------------------
    # Galois indices
    # ------------------------------------------------------------------
    def rotation_automorphism(self, steps: int) -> int:
        """Galois index ``t`` realising a left rotation by ``steps`` slots."""
        return pow(5, steps % self.slots, 2 * self.degree)

    @property
    def conjugation_automorphism(self) -> int:
        """Galois index realising slot-wise complex conjugation."""
        return 2 * self.degree - 1
