"""Per-primitive cost models (compute ops + DRAM traffic).

Counting conventions (documented in DESIGN.md §4):

* one limb of a ring element = ``8 * N`` bytes; a ciphertext = ``2 l`` limbs;
* one size-N NTT/iNTT = ``(N/2) log2 N`` modular mults + ``N log2 N`` adds;
* fast basis conversion of ``s`` source limbs to ``m`` target limbs =
  ``N s`` pre-scaling mults plus ``m * N s`` mults and ``m * N s`` adds;
* ``Ops`` totals count mults + adds, matching Table 4's "operations";
* Table 4 row semantics: ``ModUp`` is the extension of *one* digit,
  ``ModDown`` is *one* polynomial, ``KSKInnerProd`` covers both output
  polynomials.

Traffic formulas are written as explicit read/write passes per
sub-operation, gated by the MAD caching flags; each gated branch cites the
mechanism from Section 3.1 of the paper.
"""

from __future__ import annotations

from typing import List, Optional, Tuple

from repro.obs import state as obs
from repro.params import CkksParams
from repro.perf.cache import CacheModel
from repro.perf.events import CostReport, MemTraffic, OpCount
from repro.perf.optimizations import MADConfig


class PrimitiveCosts:
    """Cost model for the CKKS primitives of Table 2 / Table 4.

    Args:
        params: CKKS parameter set (full-scale, e.g. ``BASELINE_JUNG``).
        config: enabled MAD optimizations.
        cache: optional on-chip memory; when provided, caching flags that
            the memory cannot support are silently disabled (a 6 MB chip
            cannot run the ``O(alpha)`` optimization no matter the flag).
    """

    def __init__(
        self,
        params: CkksParams,
        config: MADConfig = MADConfig.none(),
        cache: Optional[CacheModel] = None,
    ):
        self.params = params
        if cache is not None:
            config = config.fitted(cache, params)
        self.config = config
        self.cache = cache
        # The geometry every formula reads, read once (CkksParams is frozen).
        self._n = params.ring_degree
        self._limb = params.limb_bytes
        self._alpha = params.alpha
        self._special = params.num_special_limbs
        #: All that ``mult``, ``pt_mult``, ``add`` and
        #: ``pt_mat_vec_mult_cost`` read of the parameters and the gated
        #: config: a bootstrap's level-cost table keys on it.
        self.level_key = (self._n, self._limb, self._alpha, config)

    # ------------------------------------------------------------------
    # Building blocks
    # ------------------------------------------------------------------
    def ntt_ops(self, limbs: int = 1) -> OpCount:
        """Ops for ``limbs`` limb-wise (i)NTT passes."""
        n, logn = self._n, self.params.log_n
        return OpCount(mults=limbs * (n // 2) * logn, adds=limbs * n * logn)

    def conversion_ops(self, sources: int, targets: int) -> OpCount:
        """Ops for a slot-wise fast basis conversion (Eq. 1)."""
        n = self._n
        return OpCount(
            mults=n * sources + targets * n * sources,
            adds=targets * n * sources,
        )

    def _traffic(
        self, ct_read=0, ct_write=0, key_read=0, pt_read=0
    ) -> MemTraffic:
        """Limb-denominated traffic converted to bytes."""
        limb = self._limb
        return MemTraffic(
            ct_read=ct_read * limb,
            ct_write=ct_write * limb,
            key_read=key_read * limb,
            pt_read=pt_read * limb,
        )

    def _check_limbs(self, limbs: int) -> None:
        if not 1 <= limbs <= self.params.max_limbs:
            raise ValueError(
                f"limb count {limbs} outside [1, {self.params.max_limbs}]"
            )

    # ------------------------------------------------------------------
    # Table 2 primitives without key switching
    # ------------------------------------------------------------------
    def pt_add(self, limbs: int) -> CostReport:
        """Plaintext addition: touches only ``c0``."""
        self._check_limbs(limbs)
        n = self._n
        return CostReport(
            OpCount(adds=n * limbs),
            self._traffic(ct_read=limbs, ct_write=limbs, pt_read=limbs),
        )

    def add(self, limbs: int) -> CostReport:
        """Ciphertext addition: both polynomials of both operands."""
        self._check_limbs(limbs)
        n = self._n
        return CostReport(
            OpCount(adds=2 * n * limbs),
            self._traffic(ct_read=4 * limbs, ct_write=2 * limbs),
        )

    def automorph(self, limbs: int) -> CostReport:
        """Slot permutation: zero arithmetic, pure data movement."""
        self._check_limbs(limbs)
        return CostReport(
            OpCount(),
            self._traffic(ct_read=2 * limbs, ct_write=2 * limbs),
        )

    def rescale(self, limbs: int, polys: int = 2) -> CostReport:
        """Divide by the last limb and drop it (per Table 2's Rescale).

        Per polynomial: iNTT the dropped limb, re-NTT it under each
        remaining modulus, then one subtract + one multiply per
        coefficient per remaining limb.
        """
        self._check_limbs(limbs)
        if limbs < 2:
            raise ValueError("cannot rescale a single-limb ciphertext")
        n = self._n
        remaining = limbs - 1
        ops_per_poly = (
            self.ntt_ops(1)  # iNTT of the dropped limb
            + self.ntt_ops(remaining)  # its image under each remaining modulus
            + OpCount(mults=n * remaining, adds=n * remaining)
        )
        # Traffic per polynomial: read every limb once, write the survivors.
        # The dropped limb's coefficient form stays cached (it is one limb).
        traffic_per_poly = self._traffic(ct_read=limbs, ct_write=remaining)
        return CostReport(ops_per_poly, traffic_per_poly).scaled(polys)

    def pt_mult(self, limbs: int) -> CostReport:
        """Plaintext multiplication, including the mandatory Rescale."""
        self._check_limbs(limbs)
        n = self._n
        product_ops = OpCount(mults=2 * n * limbs)
        rescale_cost = self.rescale(limbs, polys=2)
        if self.config.cache_o1:
            # O(1) fusion: the product limb is rescaled while resident, so
            # the intermediate 2l-limb write + re-read disappears (the
            # dropped product limb is computed first and pinned).
            traffic = self._traffic(
                ct_read=2 * limbs, pt_read=limbs, ct_write=2 * (limbs - 1)
            )
        else:
            traffic = (
                self._traffic(ct_read=2 * limbs, pt_read=limbs, ct_write=2 * limbs)
                + rescale_cost.traffic
            )
        return CostReport(product_ops + rescale_cost.ops, traffic)

    # ------------------------------------------------------------------
    # Key-switching sub-operations
    # ------------------------------------------------------------------
    def decomp(self, limbs: int) -> CostReport:
        """Digit decomposition of one polynomial (per-limb scaling pass)."""
        obs.count("perf.primitives.decomp")
        self._check_limbs(limbs)
        n = self._n
        return CostReport(
            OpCount(mults=n * limbs, adds=n * limbs),
            self._traffic(ct_read=limbs, ct_write=limbs),
        )

    def mod_up(
        self,
        limbs: int,
        digit_size: Optional[int] = None,
        fused_intt: bool = False,
    ) -> CostReport:
        """Raise one digit to the full ``PQ`` basis (Algorithm 1).

        ``digit_size`` defaults to a full ``alpha``-limb digit.
        ``fused_intt`` indicates the caller already produced the digit in
        coefficient form in the same pass (O(1) fusion with Decomp or
        Automorph), so the iNTT pass costs no extra traffic here.
        """
        obs.count("perf.primitives.mod_up")
        self._check_limbs(limbs)
        alpha = self._alpha
        d = alpha if digit_size is None else digit_size
        if not 1 <= d <= alpha:
            raise ValueError(f"digit size {d} outside [1, {alpha}]")
        k = self._special
        new = limbs + k - d
        ops = self.ntt_ops(d) + self.conversion_ops(d, new) + self.ntt_ops(new)
        if self.config.cache_alpha:
            # O(alpha): the whole digit is resident, so new limbs are
            # generated, NTT'd and written without slot-wise round trips.
            reads = 0 if fused_intt else d
            traffic = self._traffic(ct_read=reads, ct_write=new)
        elif fused_intt:
            # NewLimb (slot-wise) + NTT passes only.
            traffic = self._traffic(ct_read=d + new, ct_write=2 * new)
        else:
            # Three passes: iNTT (limb-wise), NewLimb (slot-wise), NTT.
            traffic = self._traffic(
                ct_read=2 * d + new, ct_write=d + 2 * new
            )
        return CostReport(ops, traffic)

    def ksk_inner_product(
        self,
        limbs: int,
        count_digit_reads: bool = True,
        count_output_writes: bool = True,
    ) -> CostReport:
        """Multiply the raised digits with the switching key (both rows).

        ``count_digit_reads=False`` models the O(beta) caching regime where
        the ModUp outputs stay resident across many rotations;
        ``count_output_writes=False`` models limb re-ordering, where the
        accumulated rows stream straight into the ModDown.
        """
        obs.count("perf.primitives.ksk_inner_product")
        self._check_limbs(limbs)
        n = self._n
        beta = self.params.beta(limbs)
        raised = self.params.raised_limbs(limbs)
        ops = OpCount(
            mults=2 * beta * raised * n, adds=2 * (beta - 1) * raised * n
        )
        key_limbs = 2 * beta * raised
        if self.config.key_compression:
            # The uniform `a` rows are regenerated from a short PRNG seed.
            key_limbs //= 2
        digit_reads = beta * raised if count_digit_reads else 0
        writes = 2 * raised if count_output_writes else 0
        return CostReport(
            ops,
            self._traffic(
                ct_read=digit_reads, ct_write=writes, key_read=key_limbs
            ),
        )

    def mod_down(
        self,
        limbs: int,
        polys: int = 1,
        extra_drop: int = 0,
        input_resident: bool = False,
    ) -> CostReport:
        """Drop the special limbs, dividing by ``P`` (Algorithm 2).

        Args:
            limbs: ciphertext limbs *after* the drop.
            polys: how many polynomials to process (a KeySwitch does 2).
            extra_drop: additional ciphertext limbs folded into the same
                ModDown (the ModDown-merge optimization drops
                ``P * q_l`` at once, so ``extra_drop=1``).
            input_resident: the raised input rows stream from on-chip
                accumulators instead of DRAM (limb re-ordering).
        """
        obs.count("perf.primitives.mod_down")
        self._check_limbs(limbs)
        n = self._n
        k = self._special + extra_drop
        ops_per_poly = (
            self.ntt_ops(k)
            + self.conversion_ops(k, limbs)
            + self.ntt_ops(limbs)
            + OpCount(mults=n * limbs, adds=n * limbs)
        )
        if self.config.cache_alpha:
            # O(alpha): dropped limbs stay resident; each output limb is
            # converted, NTT'd and combined in cache, then written once.
            reads = 0 if input_resident else k + limbs
            traffic_per_poly = self._traffic(ct_read=reads, ct_write=limbs)
        else:
            # Passes: iNTT of dropped limbs, slot-wise NewLimb, NTT+combine.
            traffic_per_poly = self._traffic(
                ct_read=2 * k + 2 * limbs, ct_write=k + 2 * limbs
            )
        return CostReport(ops_per_poly, traffic_per_poly).scaled(polys)

    # ------------------------------------------------------------------
    # Key switching and the primitives built on it
    # ------------------------------------------------------------------
    def key_switch(self, limbs: int, include_mod_down: bool = True) -> CostReport:
        """Full KeySwitch of one polynomial (Algorithm 3).

        ``include_mod_down=False`` returns the hoistable prefix (Decomp +
        ModUps + inner product) whose output lives in the raised basis.
        """
        obs.count("perf.primitives.key_switch")
        self._check_limbs(limbs)
        reorder = self.config.limb_reorder
        terms = [
            (self.decomp(limbs), 1),
            # With O(1) fusion the Decomp pass also produces the digit in
            # coefficient form, so ModUp skips its iNTT round trip.
            *self._mod_up_terms(limbs, fused_intt=self.config.cache_o1),
            (self.ksk_inner_product(limbs, count_output_writes=not reorder), 1),
        ]
        if include_mod_down:
            terms.append(
                (self.mod_down(limbs, polys=2, input_resident=reorder), 1)
            )
        return CostReport.weighted_sum(terms)

    def _mod_up_terms(
        self, limbs: int, fused_intt: bool
    ) -> List[Tuple[CostReport, int]]:
        """The ModUps of every digit of a ``limbs``-limb polynomial.

        The digits are ``limbs // alpha`` full ``alpha``-limb digits plus
        at most one shorter remainder, and digits of one size cost the
        same, so each distinct size is priced once and weighted by its
        digit count (a :meth:`CostReport.weighted_sum` term list).
        """
        full, rest = divmod(limbs, self._alpha)
        terms = []
        if full:
            terms.append(
                (self.mod_up(limbs, self._alpha, fused_intt=fused_intt), full)
            )
        if rest:
            terms.append((self.mod_up(limbs, rest, fused_intt=fused_intt), 1))
        return terms

    def mult(self, limbs: int) -> CostReport:
        """Ciphertext multiplication: tensor, relinearise, rescale."""
        obs.count("perf.primitives.mult")
        self._check_limbs(limbs)
        if limbs < 2:
            raise ValueError("mult needs at least 2 limbs (one to rescale)")
        n = self._n
        tensor_ops = OpCount(mults=4 * n * limbs, adds=n * limbs)
        if self.config.cache_o1:
            # Both operands are read once; d0/d1/d2 are produced in one
            # fused pass over resident limbs.
            tensor_traffic = self._traffic(ct_read=4 * limbs, ct_write=3 * limbs)
        else:
            tensor_traffic = self._traffic(
                ct_read=2 * 4 * limbs, ct_write=3 * limbs
            )
        cost = CostReport(tensor_ops, tensor_traffic)

        if self.config.mod_down_merge:
            # Fig. 4(c): KeySwitch stays in the raised basis; the tensor
            # terms are lifted by PModUp (one scalar multiply per
            # coefficient) and a single ModDown divides by P * q_l.
            cost = cost + self.key_switch(limbs, include_mod_down=False)
            raised = self.params.raised_limbs(limbs)
            cost = cost + CostReport(
                OpCount(mults=2 * n * limbs, adds=2 * n * raised),
                self._traffic(ct_read=2 * limbs),
            )
            cost = cost + self.mod_down(
                limbs - 1,
                polys=2,
                extra_drop=1,
                input_resident=self.config.limb_reorder,
            )
        else:
            cost = cost + self.key_switch(limbs)
            if self.config.cache_o1:
                # O(1) fusion: each ModDown output limb is combined with
                # its tensor limb and rescaled while resident — the
                # (u, v) write/read round trip and the separate rescale
                # passes disappear.
                cost = cost + CostReport(
                    OpCount(adds=2 * n * limbs),
                    self._traffic(ct_read=2 * limbs),
                )
                cost = cost + CostReport(
                    self.rescale(limbs, polys=2).ops,
                    self._traffic(ct_write=2 * (limbs - 1)),
                )
            else:
                # Add (u, v) into (d0, d1), then rescale both polynomials.
                cost = cost + CostReport(
                    OpCount(adds=2 * n * limbs),
                    self._traffic(ct_read=4 * limbs, ct_write=2 * limbs),
                )
                cost = cost + self.rescale(limbs, polys=2)
        return cost

    def rotate(self, limbs: int) -> CostReport:
        """Rotate = Automorph + KeySwitch of ``c1`` + recombine."""
        obs.count("perf.primitives.rotate")
        self._check_limbs(limbs)
        n = self._n
        if self.config.cache_o1:
            # Fig. 1(b): Automorph + Decomp + iNTT run on each resident c1
            # limb in a single pass (one read + one write per limb); the
            # c0 automorphism is a separate single pass.
            prefix_traffic = self._traffic(ct_read=2 * limbs, ct_write=2 * limbs)
        else:
            # Fig. 1(a): each sub-operation round-trips every limb.
            # c0+c1 automorph, then c1 decomp, then c1 per-digit iNTT.
            prefix_traffic = self._traffic(ct_read=4 * limbs, ct_write=4 * limbs)
        prefix_ops = OpCount(mults=n * limbs, adds=n * limbs)  # decomp scaling
        reorder = self.config.limb_reorder
        terms = [
            (CostReport(prefix_ops, prefix_traffic), 1),
            # ModUp of each digit; the iNTT pass was already performed (and
            # counted) by the prefix chain above in both regimes.
            *self._mod_up_terms(limbs, fused_intt=True),
            (self.ksk_inner_product(limbs, count_output_writes=not reorder), 1),
        ]
        md = self.mod_down(limbs, polys=2, input_resident=reorder)
        if self.config.cache_o1:
            # O(1) fusion: the c0-part ModDown output streams into the
            # recombination add — its write and re-read disappear.
            md = CostReport(
                md.ops,
                md.traffic + self._traffic(ct_write=-limbs),
            )
            combine_traffic = self._traffic(ct_read=limbs, ct_write=limbs)
        else:
            combine_traffic = self._traffic(ct_read=2 * limbs, ct_write=limbs)
        terms += [(md, 1), (CostReport(OpCount(adds=n * limbs), combine_traffic), 1)]
        return CostReport.weighted_sum(terms)

    def conjugate(self, limbs: int) -> CostReport:
        """Identical cost structure to Rotate (Table 4)."""
        return self.rotate(limbs)

    # ------------------------------------------------------------------
    def mod_raise(self, limbs_from: int, limbs_to: int) -> CostReport:
        """Bootstrap's initial basis extension of both polynomials."""
        if not 1 <= limbs_from < limbs_to <= self.params.max_limbs:
            raise ValueError(
                f"invalid mod_raise {limbs_from} -> {limbs_to} limbs"
            )
        new = limbs_to - limbs_from
        ops = (
            self.ntt_ops(limbs_from)
            + self.conversion_ops(limbs_from, new)
            + self.ntt_ops(new)
        ).scaled(2)
        traffic = self._traffic(
            ct_read=2 * limbs_from, ct_write=2 * limbs_to
        )
        return CostReport(ops, traffic)
