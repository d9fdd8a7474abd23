"""Radix-2 factorization of the CKKS homomorphic DFT ("special FFT").

The canonical-embedding evaluation map factors into ``log2(n)`` butterfly
levels, each a slot-linear operator with non-zero diagonals only at offsets
``{0, +/-stride}`` — which is what makes the multi-iteration
CoeffToSlot/SlotToCoeff of bootstrapping cheap: grouping the levels into
``fftIter`` stages gives stage matrices with ``O(n^(1/fftIter))`` diagonals
instead of one dense matrix.

Derivation sketch (decimation in time over the rotation group
``e_j = 5^j mod 2N``): splitting a degree-``N`` coefficient vector into
even/odd halves gives ``z_j = E_j + zeta^{e_j} O_j`` and — because
``5^(n/2) = N+1 (mod 2N)`` — ``z_{j+n/2} = E_j - zeta^{e_j} O_j``, the
classic butterfly, with both sub-problems being the same operator at half
size.  Iterating down to pairs, the leaf state is exactly the complex
packing ``c[sigma(b)] + i c[sigma(b)+n]`` of the coefficients in
*bit-reversed* order ``sigma``.  Bootstrapping tolerates the permutation:
EvalMod applies the same function to every slot, and SlotToCoeff (the same
factors, inverted, in reverse order) consumes the identical ordering.
"""

from __future__ import annotations

import math
from typing import Dict, List

import numpy as np

from repro.ckks.encoding import Encoder

#: Composed diagonals with max-abs below this are structural zeros.
_ZERO_DIAGONAL_TOL = 1e-12


def compose_diagonals(
    a: Dict[int, np.ndarray], b: Dict[int, np.ndarray], n: int
) -> Dict[int, np.ndarray]:
    """Generalised diagonals of ``A @ B`` from those of ``A`` and ``B``.

    With ``diag_d[j] = M[j, (j+d) mod n]`` the product satisfies
    ``diag_C[d][j] = sum diag_A[da][j] * diag_B[db][(j+da) mod n]`` over
    ``da + db = d (mod n)`` — so sparse operators stay sparse without ever
    materialising an ``n x n`` matrix.
    """
    out: Dict[int, np.ndarray] = {}
    for da, va in a.items():
        for db, vb in b.items():
            d = (da + db) % n
            term = va * np.roll(vb, -da)
            if d in out:
                out[d] = out[d] + term
            else:
                out[d] = term
    return {
        d: v for d, v in out.items() if np.max(np.abs(v)) > _ZERO_DIAGONAL_TOL
    }


def leaf_permutation(slots: int) -> List[int]:
    """The even/odd split order ``sigma``: leaf block ``b`` holds the
    coefficient pair ``(c[sigma(b)], c[sigma(b) + slots])``."""
    return _split_recursive(list(range(2 * slots)))


def _split_recursive(indices: List[int]) -> List[int]:
    """Recursively split [evens | odds] until pairs remain; return the
    first element of each final pair (the second is always +n apart)."""
    if len(indices) == 2:
        return [indices[0]]
    evens = _split_recursive(indices[0::2])
    odds = _split_recursive(indices[1::2])
    return evens + odds


class SpecialFft:
    """Butterfly-level factorization of an encoder's slot<->coeff maps.

    ``level_matrices[t]`` (t = 0 .. log2(n)-1, leaf to root) are complex
    ``n x n`` operators; their ordered product maps the bit-reversed packed
    coefficient state to the encoder's slot values:

        slots(c) = L_{last} @ ... @ L_0 @ leaf_state(c)

    with ``leaf_state(c)[b] = c[sigma(b)] + 1j * c[sigma(b) + n]``.
    """

    def __init__(self, encoder: Encoder):
        self.encoder = encoder
        self.slots = encoder.slots
        self.levels = int(math.log2(self.slots))
        if 2**self.levels != self.slots:
            raise ValueError("slot count must be a power of two")
        self.sigma = _split_recursive(list(range(2 * self.slots)))
        self._level_matrices: List[np.ndarray] = []

    @property
    def level_matrices(self) -> List[np.ndarray]:
        """Dense level operators, built on first access.

        They are the dense reference (:meth:`grouped_stages` and the
        ``*_full`` products) that the tests check the diagonal-space
        stages against; the bootstrap works purely in diagonal space via
        :meth:`grouped_stage_diagonals`, which is what keeps large slot
        counts (``n = 2**13`` and up) feasible.
        """
        if not self._level_matrices:
            self._level_matrices = [
                self._build_level(t) for t in range(self.levels)
            ]
        return self._level_matrices

    # ------------------------------------------------------------------
    def _build_level(self, t: int) -> np.ndarray:
        """Level ``t`` butterfly operator (leaf = level 0).

        After level ``t`` completes, blocks have length ``2^(t+1)``; the
        sub-ring degree is ``N_cur = 2^(t+2)`` and twiddles are
        ``zeta_{2 N_cur}^{5^j mod 2 N_cur}``.
        """
        n = self.slots
        half = 2**t  # half-block length being combined
        n_cur = 4 * half
        two_n_cur = 2 * n_cur
        zeta = np.exp(2j * np.pi / two_n_cur)
        matrix = np.zeros((n, n), dtype=np.complex128)
        for block_start in range(0, n, 2 * half):
            for j in range(half):
                tw = zeta ** pow(5, j, two_n_cur)
                top = block_start + j
                bot = block_start + half + j
                matrix[top, top] = 1.0
                matrix[top, bot] = tw
                matrix[bot, top] = 1.0
                matrix[bot, bot] = -tw
        return matrix

    # ------------------------------------------------------------------
    def level_diagonals(
        self, t: int, inverse: bool = False
    ) -> Dict[int, np.ndarray]:
        """Level ``t`` (or its inverse) as generalised diagonals.

        Each butterfly level touches only offsets ``{0, +half, -half}``
        with ``half = 2**t``; building the diagonals directly costs
        ``O(n)`` instead of the ``O(n^2)`` dense operator.  The inverse of
        the per-pair butterfly ``[[1, tw], [1, -tw]]`` is
        ``[[1/2, 1/2], [1/(2 tw), -1/(2 tw)]]``.
        """
        n = self.slots
        half = 2**t
        n_cur = 4 * half
        two_n_cur = 2 * n_cur
        zeta = np.exp(2j * np.pi / two_n_cur)
        tw_block = np.asarray(
            [zeta ** pow(5, j, two_n_cur) for j in range(half)]
        )
        top = (np.arange(n).reshape(-1, 2 * half)[:, :half]).reshape(-1)
        bot = top + half
        tw = np.tile(tw_block, n // (2 * half))
        diag: Dict[int, np.ndarray] = {
            0: np.zeros(n, dtype=np.complex128),
            half % n: np.zeros(n, dtype=np.complex128),
            (n - half) % n: np.zeros(n, dtype=np.complex128),
        }
        if inverse:
            diag[0][top] = 0.5
            diag[0][bot] = -0.5 / tw
            diag[half % n][top] = 0.5
            diag[(n - half) % n][bot] = 0.5 / tw
        else:
            diag[0][top] = 1.0
            diag[0][bot] = -tw
            diag[half % n][top] = tw
            diag[(n - half) % n][bot] = 1.0
        return diag

    def grouped_stage_diagonals(
        self, fft_iter: int, inverse: bool = False
    ) -> List[Dict[int, np.ndarray]]:
        """The :meth:`grouped_stages` operators in diagonal space.

        Same grouping and ordering contract as :meth:`grouped_stages`, but
        each stage is returned as its non-zero generalised diagonals,
        composed level-by-level without ever forming a dense matrix — the
        representation :class:`repro.ckks.linear.LinearTransform` consumes
        directly, and the only one that scales to bootstrap-sized rings.
        """
        if not 1 <= fft_iter <= self.levels:
            raise ValueError(
                f"fft_iter must be in [1, {self.levels}], got {fft_iter}"
            )
        n = self.slots
        bounds = [
            round(i * self.levels / fft_iter) for i in range(fft_iter + 1)
        ]
        identity = {0: np.ones(n, dtype=np.complex128)}
        stages = []
        for lo, hi in zip(bounds, bounds[1:]):
            product = identity
            if inverse:
                # inv(stage) = inv(L_lo) @ ... @ inv(L_{hi-1})
                for t in range(hi - 1, lo - 1, -1):
                    product = compose_diagonals(
                        self.level_diagonals(t, inverse=True), product, n
                    )
            else:
                # stage = L_{hi-1} @ ... @ L_lo
                for t in range(lo, hi):
                    product = compose_diagonals(
                        self.level_diagonals(t), product, n
                    )
            stages.append(product)
        if inverse:
            stages.reverse()
        return stages

    # ------------------------------------------------------------------
    def leaf_state(self, coeffs: np.ndarray) -> np.ndarray:
        """Pack a real coefficient vector into the bit-reversed leaf state."""
        c = np.asarray(coeffs, dtype=np.float64)
        n = self.slots
        if c.shape != (2 * n,):
            raise ValueError(f"expected {2 * n} coefficients, got {c.shape}")
        sigma = np.asarray(self.sigma)
        return c[sigma] + 1j * c[sigma + n]

    def unpack_leaf_state(self, state: np.ndarray) -> np.ndarray:
        """Inverse of :meth:`leaf_state`."""
        n = self.slots
        coeffs = np.zeros(2 * n)
        sigma = np.asarray(self.sigma)
        coeffs[sigma] = state.real
        coeffs[sigma + n] = state.imag
        return coeffs

    # ------------------------------------------------------------------
    def slot_to_coeff_full(self) -> np.ndarray:
        """Product of all levels: leaf state -> encoder slot values."""
        product = np.eye(self.slots, dtype=np.complex128)
        for matrix in self.level_matrices:
            product = matrix @ product
        return product

    def coeff_to_slot_full(self) -> np.ndarray:
        """Inverse product: encoder slot values -> leaf state."""
        product = np.eye(self.slots, dtype=np.complex128)
        for matrix in self.level_matrices:
            product = product @ np.linalg.inv(matrix)
        return product

    # ------------------------------------------------------------------
    def grouped_stages(self, fft_iter: int, inverse: bool = False) -> List[np.ndarray]:
        """Group the ``log2(n)`` levels into ``fft_iter`` stage matrices.

        ``inverse=False`` gives SlotToCoeff stages (applied leaf->root);
        ``inverse=True`` gives CoeffToSlot stages (root->leaf).  Each stage
        is the product of ``~log2(n)/fft_iter`` butterfly levels and has
        ``O(2^(levels per stage))`` non-zero diagonals.
        """
        if not 1 <= fft_iter <= self.levels:
            raise ValueError(
                f"fft_iter must be in [1, {self.levels}], got {fft_iter}"
            )
        # Split level indices into fft_iter contiguous groups.
        bounds = [
            round(i * self.levels / fft_iter) for i in range(fft_iter + 1)
        ]
        stages = []
        for lo, hi in zip(bounds, bounds[1:]):
            product = np.eye(self.slots, dtype=np.complex128)
            for matrix in self.level_matrices[lo:hi]:
                product = matrix @ product
            stages.append(product)
        if inverse:
            return [np.linalg.inv(stage) for stage in reversed(stages)]
        return stages
