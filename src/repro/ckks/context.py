"""Scheme context: moduli chains, encoder, and randomness."""

from __future__ import annotations

import random
from typing import Dict, List, Optional, Tuple

import numpy as np

from repro import kernels
from repro.numth import find_ntt_primes
from repro.params import CkksParams
from repro.ring import RnsBasis
from repro.ckks import sampling
from repro.ckks.encoding import Encoder


class CkksContext:
    """Wires a :class:`~repro.params.CkksParams` into concrete moduli.

    The context owns:

    * the ciphertext modulus chain ``q_1 .. q_L`` (NTT-friendly primes of
      ``log_q`` bits),
    * the ``alpha`` special primes forming the raised-basis factor ``P``,
    * the canonical-embedding encoder and the default scaling factor, and
    * the PRNG used for key generation and encryption randomness.

    Args:
        params: the CKKS parameter set (use :func:`repro.params.toy_params`
            for test-sized rings).
        scale_bits: ``log2`` of the default scaling factor; defaults to
            ``log_q - 5`` so rescaling keeps the scale roughly stable.
        seed: PRNG seed, for reproducible keys and noise.
    """

    def __init__(self, params: CkksParams, scale_bits: int = None, seed: int = 2023):
        self.params = params
        degree = params.ring_degree
        self.q_basis = RnsBasis.generate(degree, params.log_q, params.max_limbs)
        self.special_moduli: Tuple[int, ...] = tuple(
            find_ntt_primes(
                params.special_bits,
                degree,
                params.num_special_limbs,
                exclude=self.q_basis.moduli,
            )
        )
        if scale_bits is None:
            scale_bits = params.log_q - 5
        self.scale = float(2**scale_bits)
        self.encoder = Encoder(degree, self.scale)
        self.rng = random.Random(seed)
        self._basis_cache: Dict[Tuple[int, bool], RnsBasis] = {}

    # ------------------------------------------------------------------
    @property
    def degree(self) -> int:
        return self.params.ring_degree

    @property
    def slots(self) -> int:
        return self.params.slots

    @property
    def max_limbs(self) -> int:
        return self.params.max_limbs

    @property
    def p_product(self) -> int:
        """The raised-modulus factor ``P`` (product of special primes)."""
        product = 1
        for p in self.special_moduli:
            product *= p
        return product

    # ------------------------------------------------------------------
    def basis_at(self, limbs: int) -> RnsBasis:
        """Ciphertext basis ``{q_1 .. q_limbs}``."""
        return self._cached_basis(limbs, raised=False)

    def raised_basis(self, limbs: int) -> RnsBasis:
        """Raised basis ``{q_1 .. q_limbs, p_1 .. p_alpha}``."""
        return self._cached_basis(limbs, raised=True)

    def _cached_basis(self, limbs: int, raised: bool) -> RnsBasis:
        if not 1 <= limbs <= self.max_limbs:
            raise ValueError(
                f"limb count {limbs} outside [1, {self.max_limbs}]"
            )
        key = (limbs, raised)
        basis = self._basis_cache.get(key)
        if basis is None:
            moduli = self.q_basis.moduli[:limbs]
            if raised:
                moduli = moduli + self.special_moduli
            basis = RnsBasis(self.degree, moduli)
            self._basis_cache[key] = basis
        return basis

    # ------------------------------------------------------------------
    # Digit structure for hybrid key switching
    # ------------------------------------------------------------------
    def digit_index_ranges(self, limbs: int) -> List[range]:
        """Limb-index ranges of each key-switching digit at level ``limbs``.

        Digits group the modulus chain by fixed index: digit ``i`` owns limb
        indices ``[i*alpha, (i+1)*alpha)`` intersected with the live limbs.
        """
        alpha = self.params.alpha
        ranges = []
        start = 0
        while start < limbs:
            ranges.append(range(start, min(start + alpha, limbs)))
            start += alpha
        return ranges

    def digit_selector(self, digit: int) -> int:
        """Integer ``U_i mod Q_L``: 1 on digit ``i``'s moduli, 0 elsewhere.

        These CRT basis elements make the switching keys level-independent:
        restricting a congruence system to the live moduli preserves it, so
        the same key works at every level.
        """
        alpha = self.params.alpha
        lo, hi = digit * alpha, min((digit + 1) * alpha, self.max_limbs)
        if lo >= self.max_limbs:
            raise ValueError(f"digit {digit} is out of range")
        residues = [
            1 if lo <= j < hi else 0 for j in range(self.max_limbs)
        ]
        from repro.numth.crt import crt_reconstruct

        return crt_reconstruct(residues, list(self.q_basis.moduli))

    @property
    def num_digits(self) -> int:
        """Total number of key digits (``dnum`` worth of key material)."""
        return len(self.digit_index_ranges(self.max_limbs))

    # ------------------------------------------------------------------
    # Randomness
    # ------------------------------------------------------------------
    def sample_ternary_coeffs(self) -> List[int]:
        """Uniform ternary secret/ephemeral coefficients in {-1, 0, 1}.

        Defined as ``[rng.choice((-1, 0, 1)) for _ in range(N)]``, which
        runs under :func:`repro.kernels.oracle_only`.  ``choice`` draws
        ``_randbelow(3)``, the top two bits of an MT word redrawn while
        they read 3, which is exactly a ``randrange(3)`` row: the fast
        path is :func:`repro.kernels.uniform_rows` over the modulus 3,
        minus 1, with :attr:`rng` left where the loop leaves it.
        """
        if kernels.enabled():
            row = kernels.uniform_rows(self.rng, (3,), self.degree)[0]
            ternary: List[int] = (row - 1).tolist()
            return ternary
        return [self.rng.choice((-1, 0, 1)) for _ in range(self.degree)]

    def sample_error_coeffs(self, sigma: float = 3.2) -> List[int]:
        """Rounded-Gaussian error coefficients (standard RLWE noise).

        Defined as ``[int(round(rng.gauss(0.0, sigma))) for _ in
        range(N)]``, which runs under :func:`repro.kernels.oracle_only`
        and for ``|sigma|`` above :data:`repro.ckks.sampling.SIGMA_BOUND`
        (or non-finite).  Otherwise :func:`repro.ckks.sampling.rounded_gaussians`
        replays ``gauss``'s stream in numpy, with a guarded ``math``
        recomputation next to half-integers, and returns the same ints
        with :attr:`rng` (``gauss_next`` included) left where the loop
        leaves it.
        """
        if kernels.enabled() and abs(sigma) <= sampling.SIGMA_BOUND:
            return sampling.rounded_gaussians(self.rng, self.degree, sigma)
        return [int(round(self.rng.gauss(0.0, sigma))) for _ in range(self.degree)]

    def sample_uniform_rows(
        self,
        basis: RnsBasis,
        seed: Optional[int] = None,
        ends: Optional[np.ndarray] = None,
        spans: Optional[np.ndarray] = None,
    ) -> np.ndarray:
        """Uniform evaluation-form limb rows (a uniform element of ``R``).

        Returns the ``(len(basis), N)`` matrix, in ``basis.dtype``, of
        ``[[rng.randrange(q) for _ in range(N)] for q in basis]``.  Without
        a ``seed`` the draws advance :attr:`rng`.  With one they come off
        a fresh ``random.Random(seed)``, so the same seed re-expands the
        same rows: the paper's switching-key compression, where a key
        stores only the seed of its uniform half and
        :meth:`~repro.ckks.keys.SwitchingKey.restricted` regenerates the
        rows at every use.

        The int64 kernel :func:`repro.kernels.uniform_rows` replays the
        comprehension's Mersenne-Twister stream bit-exactly and leaves
        :attr:`rng` where the comprehension would; the comprehension
        itself runs for ``object``-dtype bases and under
        :func:`repro.kernels.oracle_only`, and is the kernel's reference.

        A compressed key's seeded rows take two more arguments, both
        read or written on the kernel path only.  ``ends`` (one int64
        entry per row) receives where each row's words end in the seed's
        stream, at no extra cost.  ``spans`` (one ``[start, end)`` word
        range per row, from those ends) makes the rows of ``basis`` a
        subset of the stream's: the words are drawn once, up to the last
        range, and only the given ranges are filtered
        (:func:`repro.kernels.replay_rows`).
        """
        if spans is not None and seed is None:
            raise ValueError("word ranges replay a seeded stream")
        rng = self.rng if seed is None else random.Random(seed)
        if basis.fast_path:
            if spans is not None:
                return kernels.replay_rows(rng, basis.moduli, basis.degree, spans)
            return kernels.uniform_rows(
                rng, basis.moduli, basis.degree, advance=seed is None, ends=ends
            )
        if spans is not None:
            raise ValueError("word ranges are replayed on the kernel path only")
        rows = [[rng.randrange(q) for _ in range(basis.degree)] for q in basis]
        return np.array(rows, dtype=basis.dtype)
