"""Homomorphic polynomial evaluation in the Chebyshev basis.

Bootstrapping's EvalMod phase approximates modular reduction by a scaled
sine, evaluated as a Chebyshev interpolant.  Working in the Chebyshev basis
keeps coefficients tiny (monomial coefficients of a degree-60 interpolant
overflow double precision), and the Paterson-Stockmeyer-style recursion
below evaluates a degree-``d`` series with ``O(sqrt(d))`` ciphertext
multiplications at ``O(log d)`` depth.
"""

from __future__ import annotations

import math
from typing import Callable, List, Optional, Sequence, Tuple

import numpy as np

from repro.ckks.cipher import Ciphertext
from repro.ckks.evaluator import Evaluator

#: Coefficients below this magnitude are skipped during evaluation.
_COEFF_TOL = 1e-13

#: Scale-alignment no-op window for the Chebyshev recursion.  The basis
#: values are O(1) while the useful EvalMod output is ~1e-3, so declared-
#: scale mismatch feeds almost directly into relative slot error; the
#: evaluator's additive 5% default is far too lax here (at N=2^14 the
#: NTT primes are sparse enough that chain drift reaches several percent,
#: which silently destroyed the bootstrap output).  Below 1e-4 the
#: induced error is under the scheme's noise floor; above it we spend a
#: level to re-target the scale exactly.
_SCALE_MATCH_RTOL = 1e-4


def chebyshev_fit(
    func: Callable[[np.ndarray], np.ndarray],
    degree: int,
    interval: Tuple[float, float],
) -> np.ndarray:
    """Chebyshev interpolant coefficients of ``func`` over ``interval``.

    Returns coefficients ``c`` such that ``func(x) ~= sum_k c[k] T_k(t)``
    with ``t = (2x - (a+b)) / (b-a)`` mapped onto ``[-1, 1]``.
    """
    a, b = interval
    if not a < b:
        raise ValueError(f"invalid interval {interval}")

    def mapped(t):
        return func((b - a) * (np.asarray(t) + 1.0) / 2.0 + a)

    return np.polynomial.chebyshev.chebinterpolate(mapped, degree)


def chebyshev_value(
    coeffs: Sequence[float], x: np.ndarray, interval: Tuple[float, float]
) -> np.ndarray:
    """Numeric reference evaluation of a fitted Chebyshev series."""
    a, b = interval
    t = (2.0 * np.asarray(x) - (a + b)) / (b - a)
    return np.polynomial.chebyshev.chebval(t, coeffs)


def _divide_by_t_s(coeffs: List[complex], s: int) -> Tuple[List[complex], List[complex]]:
    """Split ``p = hi * T_s + lo`` in the Chebyshev basis (degree(p) <= 2s).

    Uses ``T_k = 2 T_s T_{k-s} - T_{|k-2s|}`` for ``k > s`` and
    ``T_s = T_s T_0`` for ``k = s``.
    """
    c = list(coeffs)
    if len(c) - 1 > 2 * s:
        raise ValueError(
            f"degree {len(c) - 1} too large for split at T_{s}"
        )
    hi = [0.0] * (len(c) - s)
    for k in range(len(c) - 1, s - 1, -1):
        ck = c[k]
        if ck == 0:
            continue
        if k == s:
            hi[0] += ck
            c[k] = 0
            continue
        hi[k - s] += 2 * ck
        c[abs(k - 2 * s)] -= ck
        c[k] = 0
    return hi, c[:s]


class ChebyshevEvaluator:
    """Evaluates Chebyshev series of one encrypted argument.

    The power basis is the baby steps ``T_1 .. T_{m-1}`` and the giant
    steps ``T_m, T_2m, T_4m, ...`` up to ``max_degree``.  Each ``T_k`` is
    built the first time a series needs it and then kept, so several
    series of the same argument share them, and a series that never
    reads a power never pays for it (an odd series needs no ``T_6``).
    Bootstrapping's two EvalMod branches have different arguments, so
    each branch builds its own evaluator.
    """

    def __init__(
        self,
        evaluator: Evaluator,
        ct: Ciphertext,
        interval: Tuple[float, float],
        max_degree: int,
    ):
        if max_degree < 1:
            raise ValueError(f"max_degree must be >= 1, got {max_degree}")
        self.evaluator = evaluator
        self.interval = interval
        self.max_degree = max_degree
        # Baby-step count: power of two near sqrt(degree).
        self.baby = 1 << max(
            int(math.ceil(math.log2(math.sqrt(max_degree + 1)))), 1
        )
        self._powers: dict = {}
        self._build_argument(ct)

    # ------------------------------------------------------------------
    def _build_argument(self, ct: Ciphertext) -> None:
        """Map the argument onto [-1, 1]: ``t = (2x - (a+b)) / (b-a)``."""
        a, b = self.interval
        ev = self.evaluator
        scaled = ev.pt_mult(ct, 2.0 / (b - a))
        self._powers[1] = ev.pt_add(scaled, -(a + b) / (b - a))

    def _in_basis(self, k: int) -> bool:
        """Whether ``T_k`` is a baby step or a giant step of the basis."""
        if 1 <= k < self.baby:
            return True
        giant = self.baby
        while giant < k:
            giant *= 2
        return giant == k <= self.max_degree

    def _chebyshev_step(self, k: int) -> Ciphertext:
        """``T_k`` from lower-index entries via the product rule."""
        ev = self.evaluator
        hi = (k + 1) // 2
        lo = k // 2
        product = ev.mult(self.power(hi), self.power(lo))
        doubled = ev.add(product, product)
        if k % 2 == 0:
            # T_{2a} = 2 T_a^2 - 1.
            return ev.pt_add(doubled, -1.0)
        # T_{a+b} = 2 T_a T_b - T_{a-b} with a - b = 1.  T_1 sits many
        # levels above the product, so its scale has been rescaled by
        # different chain primes — align it to the product's scale (free
        # while the drift is within tolerance, one of T_1's spare levels
        # beyond that).
        return ev.sub(
            doubled,
            ev.match_scale(
                self.power(1), doubled.scale, rtol=_SCALE_MATCH_RTOL
            ),
        )

    def power(self, k: int) -> Ciphertext:
        """The encryption of ``T_k(t)``, built on first use."""
        if k not in self._powers:
            if not self._in_basis(k):
                raise ValueError(f"T_{k} is not in the power basis")
            self._powers[k] = self._chebyshev_step(k)
        return self._powers[k]

    # ------------------------------------------------------------------
    def evaluate(self, coeffs: Sequence[complex]) -> Ciphertext:
        """Evaluate ``sum_k coeffs[k] T_k(t)`` homomorphically."""
        coeffs = list(coeffs)
        if len(coeffs) - 1 > self.max_degree:
            raise ValueError(
                f"series degree {len(coeffs) - 1} exceeds max_degree "
                f"{self.max_degree}"
            )
        result = self._evaluate_recursive(coeffs)
        if result is None:
            raise ValueError("series has no significant coefficients")
        return result

    def _evaluate_recursive(
        self, coeffs: List[complex]
    ) -> Optional[Ciphertext]:
        # Trim trailing negligible coefficients.
        while coeffs and abs(coeffs[-1]) < _COEFF_TOL:
            coeffs.pop()
        if not coeffs:
            return None
        degree = len(coeffs) - 1
        if degree < self.baby:
            return self._evaluate_direct(coeffs)
        # Split at the smallest giant power covering half the degree.
        s = self.baby
        while 2 * s < degree + 1:
            s *= 2
        hi, lo = _divide_by_t_s(coeffs, s)
        ev = self.evaluator
        hi_ct = self._evaluate_recursive(hi)
        lo_ct = self._evaluate_recursive(lo)
        if hi_ct is None:
            return lo_ct
        combined = ev.mult(hi_ct, self.power(s))
        if lo_ct is None:
            return combined
        # lo_ct is shallower than hi_ct * T_s; align its (drifted) scale.
        return ev.add(
            combined,
            ev.match_scale(lo_ct, combined.scale, rtol=_SCALE_MATCH_RTOL),
        )

    def _evaluate_direct(self, coeffs: List[complex]) -> Optional[Ciphertext]:
        """Baby-polynomial leaf ``sum c_k T_k`` for degree < m, one rescale.

        The powers sit at different levels and drifted scales.
        :meth:`Evaluator.constant_sum_at` drops every term to the deepest
        one's level and scales each constant so the sum rescales once,
        by that level's prime, onto the context scale, where every leaf
        lands exactly.
        """
        ev = self.evaluator
        terms = [
            (self.power(k), c)
            for k, c in enumerate(coeffs)
            if k and abs(c) >= _COEFF_TOL
        ]
        if not terms:
            if abs(coeffs[0]) < _COEFF_TOL:
                return None
            # Constant-only series: carry it on a zero multiple of T_1.
            terms = [(self.power(1), 0.0)]
        acc = ev.constant_sum_at(terms, ev.context.scale)
        if abs(coeffs[0]) >= _COEFF_TOL:
            acc = ev.pt_add(acc, coeffs[0])
        return acc
