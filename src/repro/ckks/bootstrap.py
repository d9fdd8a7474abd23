"""CKKS bootstrapping: ModRaise -> CoeffToSlot -> EvalMod -> SlotToCoeff.

Follows the structure of Algorithm 4 of the paper (Cheon et al. 2018 /
Han-Ki 2020 lineage):

1. **ModRaise** — reinterpret an exhausted single-limb ciphertext over the
   full modulus chain.  The plaintext becomes ``Delta*m + q_1*I(x)`` for a
   small integer polynomial ``I``.
2. **CoeffToSlot** — homomorphic DFT moving the coefficients of that
   plaintext into slots, then one conjugation splitting the real and
   imaginary packings.
3. **EvalMod** — approximate reduction mod ``q_1`` by evaluating
   ``sin(2*pi*u) / (2*pi)`` on ``u = plaintext/q_1`` as a Chebyshev series.
4. **SlotToCoeff** — the inverse DFT, moving slots back to coefficients.

Each homomorphic DFT is the ``fftIter``-stage radix-2 factorisation of
:mod:`repro.ckks.specialfft`: ``fft_iter`` sparse-diagonal PtMatVecMults
per direction, the structure :func:`repro.perf.bootstrap.bootstrap_plan`
prices.  ``fft_iter`` defaults to the context's ``params.fft_iter``.
"""

from __future__ import annotations

import math
from typing import Optional, Tuple

import numpy as np

from repro.obs import state as obs
from repro.ring import RnsPolynomial
from repro.ckks.cipher import Ciphertext
from repro.ckks.context import CkksContext
from repro.ckks.evaluator import Evaluator
from repro.ckks.keys import KeyGenerator
from repro.ckks.linear import LinearTransform
from repro.ckks.polyeval import ChebyshevEvaluator, chebyshev_fit
from repro.ckks.specialfft import SpecialFft


def approximate_mod_poly(
    k_bound: int, degree: int
) -> Tuple[np.ndarray, Tuple[float, float]]:
    """Chebyshev series approximating ``u mod 1`` (centered) on ``[-K, K]``.

    Returns the coefficients of ``sin(2*pi*u) / (2*pi)`` — which agrees with
    the centered reduction of ``u`` modulo 1 up to ``O(eps^3)`` for inputs
    ``u = I + eps`` with integer ``|I| <= K`` — together with the fit
    interval.
    """
    if k_bound < 1:
        raise ValueError(f"k_bound must be >= 1, got {k_bound}")
    interval = (-(k_bound + 0.5), k_bound + 0.5)
    coeffs = chebyshev_fit(
        lambda u: np.sin(2.0 * np.pi * u) / (2.0 * np.pi), degree, interval
    )
    return coeffs, interval


def reduced_cos_poly(
    k_bound: int, degree: int, double_angle_iters: int
) -> Tuple[np.ndarray, Tuple[float, float]]:
    """Chebyshev series for the *angle-reduced* cosine used by double-angle
    EvalMod (Han-Ki / Bossuat et al. style).

    Evaluating ``g_0 = cos((2*pi*u - pi/2) / 2^r)`` and applying the
    double-angle rule ``g_{k+1} = 2 g_k^2 - 1`` ``r`` times yields
    ``cos(2*pi*u - pi/2) = sin(2*pi*u)``.  The reduced argument spans
    ``2^r``-fold fewer oscillations, so a much lower Chebyshev degree
    suffices — trading interpolation degree for ``r`` extra multiplicative
    levels.
    """
    if k_bound < 1:
        raise ValueError(f"k_bound must be >= 1, got {k_bound}")
    if double_angle_iters < 1:
        raise ValueError(
            f"double_angle_iters must be >= 1, got {double_angle_iters}"
        )
    interval = (-(k_bound + 0.5), k_bound + 0.5)
    scale = 2.0**double_angle_iters
    coeffs = chebyshev_fit(
        lambda u: np.cos((2.0 * np.pi * u - np.pi / 2.0) / scale),
        degree,
        interval,
    )
    return coeffs, interval


class Bootstrapper:
    """Refreshes exhausted ciphertexts back to a high level.

    Args:
        context: scheme context; its chain must be deep enough for the
            pipeline (``fft_iter + 1`` CoeffToSlot levels, ~log2(mod_degree)+2
            EvalMod levels and ``fft_iter`` SlotToCoeff levels).
        keygen: the key generator holding the secret key.  ``k_bound``,
            the bound on the integer overflow ``|I(x)|``, is
            ``hamming_weight/2 + 2`` from the secret's actual weight, so
            a *sparse* secret keeps it small.
        mod_degree: Chebyshev degree for the EvalMod sine approximation.
        double_angle_iters: double-angle squarings after a reduced cosine
            (:func:`reduced_cos_poly`); 0 evaluates the sine directly.
        fft_iter: stages per homomorphic DFT direction; defaults to
            ``context.params.fft_iter``, the field the performance model
            prices.
    """

    def __init__(
        self,
        context: CkksContext,
        keygen: KeyGenerator,
        *,
        mod_degree: int = 63,
        double_angle_iters: int = 0,
        fft_iter: Optional[int] = None,
    ):
        self.context = context
        self.fft_iter = context.params.fft_iter if fft_iter is None else fft_iter
        weight = sum(1 for c in keygen.secret_key.coeffs if c)
        self.k_bound = weight // 2 + 2
        self.mod_degree = mod_degree
        self.double_angle_iters = double_angle_iters
        if double_angle_iters:
            self.mod_coeffs, self.mod_interval = reduced_cos_poly(
                self.k_bound, mod_degree, double_angle_iters
            )
        else:
            self.mod_coeffs, self.mod_interval = approximate_mod_poly(
                self.k_bound, mod_degree
            )

        # The radix-2 special FFT grouped into fft_iter stages of
        # sparse-diagonal transforms, composed in diagonal space so that
        # no n x n matrix is formed.  The stages produce/consume the
        # coefficient packing in bit-reversed slot order, which EvalMod
        # (slot-wise) is oblivious to.
        fft = SpecialFft(context.encoder)
        self.c2s_stages = [
            LinearTransform(stage)
            for stage in fft.grouped_stage_diagonals(self.fft_iter, inverse=True)
        ]
        self.s2c_stages = [
            LinearTransform(stage)
            for stage in fft.grouped_stage_diagonals(self.fft_iter)
        ]

        self.evaluator = Evaluator(
            context,
            relin_key=keygen.relinearization_key(),
            rotation_keys={
                step: keygen.rotation_key(step)
                for step in self.required_rotations()
            },
            conjugation_key=keygen.conjugation_key(),
        )

    # ------------------------------------------------------------------
    def required_rotations(self):
        steps = set()
        for transform in self.c2s_stages + self.s2c_stages:
            steps.update(transform.required_rotations())
        return sorted(steps)

    # ------------------------------------------------------------------
    def mod_raise(self, ct: Ciphertext) -> Ciphertext:
        """Reinterpret a single-limb ciphertext over the full chain.

        The output decrypts to ``m' = Delta*m + q_1*I(x)``; we declare its
        scale to be ``q_1`` so downstream transforms see the slot values
        ``u = m'/q_1``.
        """
        if ct.num_limbs != 1:
            ct = self.evaluator.reduce_level(ct, 1)
        q1 = ct.basis.moduli[0]
        full = self.context.basis_at(self.context.max_limbs)
        half = q1 // 2

        def lift(poly: RnsPolynomial) -> RnsPolynomial:
            row = poly.to_coeff().limbs[0]
            centered = np.where(row > half, row - q1, row)
            return RnsPolynomial.from_int_coeffs(centered, full).to_eval()

        return Ciphertext(lift(ct.c0), lift(ct.c1), float(q1))

    # ------------------------------------------------------------------
    def coeff_to_slot(self, ct: Ciphertext) -> Tuple[Ciphertext, Ciphertext]:
        """Homomorphic DFT: slots become (real, imag) coefficient packings.

        The packing is in bit-reversed order (:attr:`SpecialFft.sigma`);
        the slot-wise EvalMod does not care, and :meth:`slot_to_coeff`
        consumes the same ordering.  The real/imaginary split costs one
        level after the ``fft_iter`` stages.
        """
        ev = self.evaluator
        packed = ct
        for stage in self.c2s_stages:
            packed = stage.apply(ev, packed)
        conjugated = ev.conjugate(packed)
        u_real = ev.pt_mult(ev.add(packed, conjugated), 0.5)
        u_imag = ev.pt_mult(ev.sub(packed, conjugated), -0.5j)
        return u_real, u_imag

    def eval_mod(self, ct: Ciphertext, factor: complex = 1.0) -> Ciphertext:
        """Approximate centered reduction mod 1 of real-valued slots.

        ``factor`` scales the output.  The imaginary branch passes ``1j``:
        the real series is evaluated as for the real branch, and the
        result is multiplied by ``x^{N/2}`` (:meth:`Evaluator.mult_by_i`),
        which is exact and costs no level.  Any other factor is folded
        into the series coefficients on the direct path.  The
        double-angle path applies it in its final plaintext
        multiplication.  Each call builds its own power basis, because
        the two branches' arguments differ.
        """
        ev = self.evaluator
        cheb = ChebyshevEvaluator(ev, ct, self.mod_interval, self.mod_degree)
        if not self.double_angle_iters:
            if factor == 1j:
                return ev.mult_by_i(cheb.evaluate(self.mod_coeffs))
            return cheb.evaluate([c * factor for c in self.mod_coeffs])
        # Double-angle path: evaluate the angle-reduced cosine at a low
        # degree, then square up r times (2cos^2 - 1) to reach
        # cos(2*pi*u - pi/2) = sin(2*pi*u), and rescale by 1/(2*pi).
        g = cheb.evaluate(self.mod_coeffs)
        for _ in range(self.double_angle_iters):
            squared = ev.mult(g, g)
            g = ev.pt_add(ev.add(squared, squared), -1.0)
        return ev.pt_mult(g, factor / (2.0 * math.pi))

    def slot_to_coeff(self, ct: Ciphertext) -> Ciphertext:
        """Inverse homomorphic DFT: packed coefficients back into slots."""
        out = ct
        for stage in self.s2c_stages:
            out = stage.apply(self.evaluator, out)
        return out

    # ------------------------------------------------------------------
    def bootstrap(self, ct: Ciphertext) -> Ciphertext:
        """Full bootstrap of a (nearly) exhausted ciphertext.

        The input may have any number of limbs; only its first limb is
        used.  The message magnitude must satisfy ``|m| * scale << q_1``
        for the sine approximation to hold.

        Returns a ciphertext at a high level encrypting the same message
        (scale bookkeeping is adjusted so decryption needs no external
        correction).

        When a tracer is installed (:mod:`repro.obs`) the four pipeline
        phases are emitted as nested wall-clock spans — the functional
        counterpart of the analytical span tree the performance model
        produces.
        """
        with obs.span(
            "ckks.Bootstrap",
            slots=self.context.slots,
            limbs=self.context.max_limbs,
        ):
            input_scale = ct.scale
            with obs.span("ModRaise"):
                raised = self.mod_raise(ct)
            q1 = float(self.context.q_basis.moduli[0])

            with obs.span("CoeffToSlot"):
                u_real, u_imag = self.coeff_to_slot(raised)
            with obs.span("EvalMod"):
                v_real = self.eval_mod(u_real)
                v_imag = self.eval_mod(u_imag, factor=1j)
                packed = self.evaluator.add(v_real, v_imag)
            with obs.span("SlotToCoeff"):
                out = self.slot_to_coeff(packed)
            # The pipeline computed values (Delta_in/q_1) * m; fold the
            # factor into the declared scale.
            return Ciphertext(out.c0, out.c1, out.scale * input_scale / q1)
