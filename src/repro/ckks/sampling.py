"""Bit-exact vectorised replay of rounded ``random.Random.gauss`` draws.

RLWE error coefficients are defined as
``[int(round(rng.gauss(0.0, sigma))) for _ in range(N)]``, and that loop
stays the reference (:meth:`repro.ckks.CkksContext.sample_error_coeffs`
runs it under :func:`repro.kernels.oracle_only`).  :func:`rounded_gaussians`
must return the identical integers and leave ``rng`` in the identical
state, ``gauss_next`` included.

CPython's ``gauss`` (the same in 3.10 to 3.13) makes its outputs in
pairs.  A pair takes two ``random()`` values ``u1, u2``, four 32-bit
Mersenne-Twister words with
``u = ((w0 >> 5) * 2**26 + (w1 >> 6)) * 2**-53``, returns
``cos(u1 * TWOPI) * r`` and keeps ``sin(u1 * TWOPI) * r`` in
``gauss_next`` for the next call, where ``r = sqrt(-2 * log(1 - u2))``.
The replay draws ``4 * pairs`` raw words (:func:`repro.kernels.raw_words`)
and evaluates the same float64 expressions in the same order with numpy.

Every step but three is correctly rounded on both paths: the int-to-float
conversions, the products and ``sqrt``.  numpy's ``log``, ``cos`` and
``sin`` may differ from libm's in the last place (numpy's AVX-512
``log`` does on about 1 input in 300), which moves ``sigma * z`` by a
few ULPs.  That can change the rounded integer only when the value
sits next to a half-integer, so every pair with a value inside a guard
band around one (``1e-6`` up to ``|v| = 30``, about ``10**8`` ULPs, and
proportionally wider above) is recomputed with ``math`` exactly as
``gauss`` computes it.  A value lands in the band with probability
about ``2e-6``, so a few pairs in a million are recomputed.

The stream contract: a pending ``gauss_next`` is the first output,
rounded in Python; the words are consumed four per pair, so the
generator ends exactly ``4 * pairs`` words on; and when the call uses
an odd number of values from the pairs, ``gauss_next`` becomes the
``math``-computed ``sin`` value of the last pair, as the loop leaves it.

The replay is float arithmetic by definition, which is why it lives
here and not in the float-free :mod:`repro.kernels`.
"""

from __future__ import annotations

import math
import random
from typing import List, Tuple

import numpy as np

from repro import kernels

__all__ = ["SIGMA_BOUND", "rounded_gaussians"]

#: Largest ``|sigma|`` the replay takes: ``|z| < 9`` for every ``gauss``
#: output, so ``|sigma * z|`` stays far inside int64.  A larger or
#: non-finite ``sigma`` (NaN fails the comparison) runs the loop.
SIGMA_BOUND = 2.0**32

#: Half-width of the guard band around each half-integer, for values up
#: to :data:`_GUARD_SCALE` in magnitude; it grows with ``|v|`` above.
_GUARD = 1e-6
_GUARD_SCALE = 30.0


def _uniforms(high: np.ndarray, low: np.ndarray) -> np.ndarray:
    """``random()`` from its two raw words: ``(a * 2**26 + b) * 2**-53``."""
    return ((high >> 5) * 67108864 + (low >> 6)).astype(np.float64) * 2.0**-53


def _gauss_pair(u1: float, u2: float) -> Tuple[float, float]:
    """``gauss``'s ``(cos, sin)`` pair from two ``random()`` values."""
    x2pi = u1 * math.tau
    g2rad = math.sqrt(-2.0 * math.log(1.0 - u2))
    return math.cos(x2pi) * g2rad, math.sin(x2pi) * g2rad


def rounded_gaussians(
    rng: random.Random, count: int, sigma: float
) -> List[int]:
    """``[int(round(rng.gauss(0.0, sigma))) for _ in range(count)]``.

    Returns the same Python ints and leaves ``rng`` exactly where the
    loop leaves it.  ``|sigma|`` must be at most :data:`SIGMA_BOUND`.
    """
    if not abs(sigma) <= SIGMA_BOUND:
        raise ValueError(f"sigma must be finite and at most 2**32, got {sigma!r}")
    out: List[int] = []
    if count <= 0:
        return out
    pending = rng.gauss_next
    if pending is not None:
        rng.gauss_next = None
        out.append(int(round(0.0 + pending * sigma)))
        count -= 1
    pairs = (count + 1) // 2
    if not pairs:
        return out
    words = kernels.raw_words(rng, 4 * pairs).reshape(pairs, 4)
    u1 = _uniforms(words[:, 0], words[:, 1])
    u2 = _uniforms(words[:, 2], words[:, 3])
    x2pi = u1 * math.tau
    g2rad = np.sqrt(-2.0 * np.log(1.0 - u2))
    # Row k holds pair k's (cos, sin) outputs: ravel() is stream order.
    z = np.stack((np.cos(x2pi) * g2rad, np.sin(x2pi) * g2rad), axis=1)
    v = z * sigma
    band = _GUARD * np.maximum(1.0, np.abs(v) / _GUARD_SCALE)
    near = np.abs(v - np.floor(v) - 0.5) < band
    for k in np.flatnonzero(near.any(axis=1)).tolist():
        z[k] = _gauss_pair(float(u1[k]), float(u2[k]))
        v[k] = z[k] * sigma
    out.extend(np.rint(v).astype(np.int64).ravel()[:count].tolist())
    if count % 2:
        rng.gauss_next = _gauss_pair(float(u1[-1]), float(u2[-1]))[1]
    return out
