"""Limb-granularity schedule generators mirroring the analytical model.

Each public method of :class:`ScheduleBuilder` emits the memory-access
trace of one primitive under one :class:`~repro.perf.optimizations.MADConfig`,
branch-for-branch against the pass structure that
:class:`~repro.perf.primitives.PrimitiveCosts` counts.  The invariant the
whole package rests on:

    **Replaying a schedule on a cache that satisfies the analytical fit
    thresholds reproduces the analytical DRAM traffic exactly; replaying
    it on a smaller cache shows *more* traffic — the broken threshold.**

Three emission conventions make that hold:

* *Streaming passes* — reads the analytical model always counts from
  DRAM are emitted as non-allocating reads (``allocate=False``), so even
  an oversized cache cannot retain them and silently undercut a formula.
* *Residency-exploiting loops* — where a formula assumes a working set
  is resident (the ``alpha``-limb digit during basis conversion, the
  ``beta`` digit limbs across rotations, reorder's special-limb
  accumulators), the schedule re-reads that working set with allocating
  reads and pins it.  At fit-threshold capacity the re-reads hit; below
  it they miss, and simulated exceeds analytical.
* *Flush at death* — data whose next consumer is analytically counted
  as a DRAM read (raised digits between ModUp and KSKInnerProd) is
  flushed once dead, so cache residue never masks counted traffic.

When ``beta(l)`` exceeds the number of actual digits (``l % alpha == 0``
makes ``ceil((l+1)/alpha) == ceil(l/alpha) + 1``), the analytical inner
product still charges ``beta * raised`` digit reads.  Schedules emit a
*phantom* raised digit — a fresh, never-written buffer whose reads always
miss — so simulated and analytical agree on that conservatism too.

Schedules are deterministic pure functions of ``(params, config)``: no
clocks, no RNG, block ids assigned sequentially by the recorder.
"""

from __future__ import annotations

from typing import List, NamedTuple, Optional, Sequence, Tuple

from repro.memsim.trace import KEY, PT, Buffer, Trace, TraceRecorder
from repro.obs import state as obs
from repro.params import CkksParams
from repro.perf.bootstrap import bootstrap_plan
from repro.perf.events import CostReport
from repro.perf.matvec import bsgs_split, pt_mat_vec_mult_cost
from repro.perf.optimizations import MADConfig
from repro.perf.primitives import PrimitiveCosts

__all__ = [
    "PRIMITIVES",
    "Schedule",
    "ScheduleBuilder",
    "ScheduleUnit",
]


class Schedule(NamedTuple):
    """One primitive's trace paired with its analytical cost."""

    label: str
    trace: Trace
    analytical: CostReport


class ScheduleUnit(NamedTuple):
    """One bootstrap sub-operation: trace + analytical cost + multiplicity.

    Bootstrap is validated per-unit on a cold cache and the traffic is
    scaled by ``scale`` — matching how the analytical ledger scales each
    level's CostReport instead of re-deriving it ``scale`` times.
    """

    label: str
    phase: str
    trace: Trace
    analytical: CostReport
    scale: int


#: Raised-digit representation: block id per raised-basis position
#: (positions ``0..l-1`` are the q-limbs, ``l..l+k-1`` the special limbs).
RaisedDigit = List[int]


class ScheduleBuilder:
    """Generates traces for one ``(params, config)`` pair.

    The analytical side is always computed with ``cache=None`` — no
    auto-disabling of unsupported flags — so that replaying a schedule on
    an undersized cache *disagrees* with the analytical claim instead of
    both sides quietly degrading together.
    """

    def __init__(self, params: CkksParams, config: MADConfig):
        self.params = params
        self.config = config
        self.costs = PrimitiveCosts(params, config, cache=None)

    # ------------------------------------------------------------------
    # Small helpers
    # ------------------------------------------------------------------
    @property
    def _alpha(self) -> int:
        return self.params.alpha

    def _raised(self, limbs: int) -> int:
        return self.params.raised_limbs(limbs)

    def _beta(self, limbs: int) -> int:
        return self.params.beta(limbs)

    def _digit_slices(self, limbs: int) -> List[Tuple[int, int]]:
        """``(start, size)`` of each digit's q-limb slice."""
        slices = []
        start = 0
        while start < limbs:
            size = min(self._alpha, limbs - start)
            slices.append((start, size))
            start += size
        return slices

    def _recorder(self, label: str) -> TraceRecorder:
        return TraceRecorder(self.params.limb_bytes, label)

    def _key_limbs(self, limbs: int) -> int:
        key = 2 * self._beta(limbs) * self._raised(limbs)
        if self.config.key_compression:
            key //= 2
        return key

    # ------------------------------------------------------------------
    # Sub-operation emitters (shared recorder, return block geometry)
    # ------------------------------------------------------------------
    def _emit_decomp_pass(self, rec: TraceRecorder, src: Buffer) -> Buffer:
        """Plain Decomp: one streaming pass, read ``l`` / write ``l``."""
        digits = rec.alloc("decomp.digits", len(src))
        for i in range(len(src)):
            rec.read(src[i], allocate=False)
            rec.write(digits[i])
        return digits

    def _emit_mod_up(
        self,
        rec: TraceRecorder,
        limbs: int,
        slice_start: int,
        digit_blocks: Sequence[int],
        fused_intt: bool,
        digit_resident: bool,
    ) -> RaisedDigit:
        """Raise one digit to the full PQ basis; returns the raised map.

        ``fused_intt`` mirrors the analytical flag (the producer already
        delivered the digit in coefficient form); ``digit_resident`` says
        the producer additionally left the digit blocks in cache (the
        fused O(1)+O(alpha) Decomp interleave).
        """
        d = len(digit_blocks)
        raised = self._raised(limbs)
        new_count = raised - d

        if self.config.cache_alpha:
            # O(alpha): the digit stays resident; each new limb is
            # converted, NTT'd and written without slot-wise round trips.
            # When the producer did not leave the digit resident, the
            # first conversion's reads miss exactly ``d`` times — the
            # analytical non-fused read count; fused producers made them
            # resident, so those reads all hit (the 0-read claim).
            new = rec.alloc("modup.new", new_count)
            rec.pin_blocks(tuple(digit_blocks))
            for j in range(new_count):
                for b in digit_blocks:
                    rec.read(b)
                rec.write(new[j])
            rec.unpin_blocks(tuple(digit_blocks))
            # The raised digit's next consumer (KSKInnerProd) is counted
            # as DRAM reads by the model — drop the residue.
            rec.flush_blocks(tuple(digit_blocks))
            new_blocks = [new[j] for j in range(new_count)]
        elif fused_intt:
            # Slot-wise NewLimb pass + limb-wise NTT pass.
            conv = rec.alloc("modup.conv", new_count)
            for b in digit_blocks:
                rec.read(b, allocate=False)
            for j in range(new_count):
                rec.write(conv[j])
            new = rec.alloc("modup.new", new_count)
            for j in range(new_count):
                rec.read(conv[j], allocate=False)
                rec.write(new[j])
            new_blocks = [new[j] for j in range(new_count)]
        else:
            # Three passes: iNTT, slot-wise NewLimb, NTT.
            intt = rec.alloc("modup.intt", d)
            for i, b in enumerate(digit_blocks):
                rec.read(b, allocate=False)
                rec.write(intt[i])
            conv = rec.alloc("modup.conv", new_count)
            for i in range(d):
                rec.read(intt[i], allocate=False)
            for j in range(new_count):
                rec.write(conv[j])
            new = rec.alloc("modup.new", new_count)
            for j in range(new_count):
                rec.read(conv[j], allocate=False)
                rec.write(new[j])
            new_blocks = [new[j] for j in range(new_count)]

        # Assemble the position-ordered raised map: the digit's own slice
        # keeps its blocks, every other position comes from the new limbs.
        raised_map: RaisedDigit = []
        new_iter = iter(new_blocks)
        for position in range(raised):
            if slice_start <= position < slice_start + d:
                raised_map.append(digit_blocks[position - slice_start])
            else:
                raised_map.append(next(new_iter))
        return raised_map

    def _emit_prefix(
        self, rec: TraceRecorder, src: Buffer, limbs: int
    ) -> List[RaisedDigit]:
        """Decomp + per-digit ModUp of one polynomial (KeySwitch prefix).

        Returns one raised map per digit, padded with phantom digits up
        to ``beta(limbs)``.
        """
        slices = self._digit_slices(limbs)
        raised_digits: List[RaisedDigit] = []
        if self.config.cache_alpha and self.config.cache_o1:
            # Fused Decomp + ModUp, one digit at a time: the digit is
            # produced resident and consumed in cache before moving on.
            for start, size in slices:
                digit = rec.alloc("decomp.digit", size)
                for i in range(size):
                    rec.read(src[start + i], allocate=False)
                    rec.write(digit[i], resident=True)
                raised_digits.append(
                    self._emit_mod_up(
                        rec,
                        limbs,
                        start,
                        [digit[i] for i in range(size)],
                        fused_intt=True,
                        digit_resident=True,
                    )
                )
        else:
            digits = self._emit_decomp_pass(rec, src)
            for start, size in slices:
                raised_digits.append(
                    self._emit_mod_up(
                        rec,
                        limbs,
                        start,
                        [digits[start + i] for i in range(size)],
                        fused_intt=self.config.cache_o1,
                        digit_resident=False,
                    )
                )
        for _ in range(self._beta(limbs) - len(raised_digits)):
            phantom = rec.alloc("modup.phantom", self._raised(limbs))
            raised_digits.append(list(phantom.blocks()))
        return raised_digits

    def _emit_ksk(
        self,
        rec: TraceRecorder,
        limbs: int,
        raised_digits: List[RaisedDigit],
        count_digit_reads: bool,
        count_output_writes: bool,
    ) -> Optional[Tuple[Buffer, Buffer]]:
        """Inner product with the switching key (both output rows).

        Returns the accumulated rows when they are written to DRAM, or
        ``None`` when the caller fuses them into a reorder ModDown.
        """
        rec.read_stream(KEY, self._key_limbs(limbs))
        if count_digit_reads:
            for digit in raised_digits:
                for block in digit:
                    rec.read(block, allocate=False)
        if count_output_writes:
            raised = self._raised(limbs)
            acc0 = rec.alloc("ksk.acc0", raised)
            acc1 = rec.alloc("ksk.acc1", raised)
            rec.write_buffer(acc0)
            rec.write_buffer(acc1)
            return acc0, acc1
        return None

    def _emit_mod_down_poly(
        self,
        rec: TraceRecorder,
        dropped: Sequence[int],
        body: Sequence[int],
        out: Optional[Buffer],
        input_resident: bool,
    ) -> None:
        """ModDown of one polynomial (Algorithm 2).

        ``out=None`` suppresses the final combine-pass writes (the O(1)
        fusion of Rotate streams the c0 row into the recombination).
        """
        if self.config.cache_alpha:
            # In-cache conversion: the dropped limbs are read once (or
            # arrive resident), then re-read per output limb from cache.
            rec.pin_blocks(tuple(dropped))
            for i, body_block in enumerate(body):
                for b in dropped:
                    rec.read(b)
                if input_resident:
                    rec.read(body_block)
                else:
                    rec.read(body_block, allocate=False)
                if out is not None:
                    rec.write(out[i])
            rec.unpin_blocks(tuple(dropped))
            rec.flush_blocks(tuple(dropped))
        else:
            # Slot-wise passes: iNTT the dropped limbs, NewLimb, then
            # NTT + combine with the body limb.  ``input_resident`` is
            # ignored, matching the analytical branch.
            k = len(dropped)
            intt = rec.alloc("moddown.intt", k)
            for i, b in enumerate(dropped):
                rec.read(b, allocate=False)
                rec.write(intt[i])
            conv = rec.alloc("moddown.conv", len(body))
            for i in range(k):
                rec.read(intt[i], allocate=False)
            for j in range(len(body)):
                rec.write(conv[j])
            for i, body_block in enumerate(body):
                rec.read(conv[i], allocate=False)
                rec.read(body_block, allocate=False)
                if out is not None:
                    rec.write(out[i])

    @staticmethod
    def _split_raised(
        acc: Buffer, body_limbs: int
    ) -> Tuple[List[int], List[int]]:
        """Partition a raised-basis row into (dropped, body) block lists."""
        blocks = list(acc.blocks())
        return blocks[body_limbs:], blocks[:body_limbs]

    def _emit_ksk_md_reorder(
        self,
        rec: TraceRecorder,
        limbs: int,
        raised_digits: List[RaisedDigit],
        body_limbs: int,
        out0: Optional[Buffer],
        out1: Buffer,
        combine_src: Optional[Buffer] = None,
        final: Optional[Buffer] = None,
    ) -> None:
        """Limb re-ordered KSKInnerProd + ModDown, fused (both rows).

        The to-be-dropped (special) limbs are accumulated first into
        pinned on-chip scratch; each body limb's row is then produced,
        converted against the resident specials and written out in one
        flow — no DRAM round trip for the inner-product rows, which is
        exactly what ``count_output_writes=False`` + ``input_resident``
        claim.  ``body_limbs < limbs`` models the ModDown-merge variant
        (the extra dropped q-limb joins the specials).
        """
        raised = self._raised(limbs)
        dropped_count = raised - body_limbs
        rec.read_stream(KEY, self._key_limbs(limbs))
        spec0 = rec.alloc("reorder.spec0", dropped_count)
        spec1 = rec.alloc("reorder.spec1", dropped_count)
        for idx, position in enumerate(range(body_limbs, raised)):
            for digit in raised_digits:
                rec.read(digit[position], allocate=False)
            rec.scratch(spec0[idx])
            rec.scratch(spec1[idx])
        rec.pin(spec0, spec1)
        rows0 = rec.alloc("reorder.row0", body_limbs)
        rows1 = rec.alloc("reorder.row1", body_limbs)
        for i in range(body_limbs):
            for digit in raised_digits:
                rec.read(digit[i], allocate=False)
            rec.scratch(rows0[i])
            rec.scratch(rows1[i])
            for b in spec0.blocks():
                rec.read(b)
            rec.read(rows0[i])
            if out0 is not None:
                rec.write(out0[i])
            elif final is not None and combine_src is not None:
                # Rotate's O(1) fusion: the c0 row streams straight into
                # the recombination add.
                rec.read(combine_src[i], allocate=False)
                rec.write(final[i])
            for b in spec1.blocks():
                rec.read(b)
            rec.read(rows1[i])
            rec.write(out1[i])
            rec.flush_blocks((rows0[i], rows1[i]))
        rec.unpin(spec0, spec1)
        rec.flush(spec0, spec1)

    # ------------------------------------------------------------------
    # Primitive emitters (shared recorder; composable)
    # ------------------------------------------------------------------
    def _emit_key_switch(
        self, rec: TraceRecorder, src: Buffer, limbs: int
    ) -> Tuple[Buffer, Buffer]:
        """Full KeySwitch of one polynomial; returns the two output polys."""
        raised_digits = self._emit_prefix(rec, src, limbs)
        out0 = rec.alloc("ks.out0", limbs)
        out1 = rec.alloc("ks.out1", limbs)
        if self.config.limb_reorder:
            self._emit_ksk_md_reorder(
                rec, limbs, raised_digits, limbs, out0, out1
            )
        else:
            acc = self._emit_ksk(
                rec,
                limbs,
                raised_digits,
                count_digit_reads=True,
                count_output_writes=True,
            )
            assert acc is not None
            for acc_poly, out in zip(acc, (out0, out1)):
                dropped, body = self._split_raised(acc_poly, limbs)
                self._emit_mod_down_poly(
                    rec, dropped, body, out, input_resident=False
                )
        return out0, out1

    def _emit_rotate(self, rec: TraceRecorder, limbs: int) -> None:
        """Rotate = Automorph + KeySwitch of c1 + recombine (Fig. 1)."""
        c0 = rec.alloc("ct.c0", limbs)
        c1 = rec.alloc("ct.c1", limbs)
        c0a = rec.alloc("rot.c0a", limbs)
        o1 = self.config.cache_o1
        slices = self._digit_slices(limbs)
        raised_digits: List[RaisedDigit] = []

        if o1:
            # Fused automorph+decomp+iNTT single pass per limb.
            for i in range(limbs):
                rec.read(c0[i], allocate=False)
                rec.write(c0a[i])
            if self.config.cache_alpha:
                for start, size in slices:
                    digit = rec.alloc("rot.digit", size)
                    for i in range(size):
                        rec.read(c1[start + i], allocate=False)
                        rec.write(digit[i], resident=True)
                    raised_digits.append(
                        self._emit_mod_up(
                            rec,
                            limbs,
                            start,
                            [digit[i] for i in range(size)],
                            fused_intt=True,
                            digit_resident=True,
                        )
                    )
            else:
                digits = rec.alloc("rot.digits", limbs)
                for i in range(limbs):
                    rec.read(c1[i], allocate=False)
                    rec.write(digits[i])
                for start, size in slices:
                    raised_digits.append(
                        self._emit_mod_up(
                            rec,
                            limbs,
                            start,
                            [digits[start + i] for i in range(size)],
                            fused_intt=True,
                            digit_resident=False,
                        )
                    )
        else:
            # Separate automorph, decomp and iNTT passes (Fig. 1(a)).
            c1a = rec.alloc("rot.c1a", limbs)
            for i in range(limbs):
                rec.read(c0[i], allocate=False)
                rec.write(c0a[i])
                rec.read(c1[i], allocate=False)
                rec.write(c1a[i])
            digits = rec.alloc("rot.digits", limbs)
            for i in range(limbs):
                rec.read(c1a[i], allocate=False)
                rec.write(digits[i])
            coeff = rec.alloc("rot.coeff", limbs)
            resident = self.config.cache_alpha
            for i in range(limbs):
                rec.read(digits[i], allocate=False)
                rec.write(coeff[i], resident=resident)
            for start, size in slices:
                raised_digits.append(
                    self._emit_mod_up(
                        rec,
                        limbs,
                        start,
                        [coeff[start + i] for i in range(size)],
                        fused_intt=True,
                        digit_resident=resident,
                    )
                )
        for _ in range(self._beta(limbs) - len(raised_digits)):
            phantom = rec.alloc("modup.phantom", self._raised(limbs))
            raised_digits.append(list(phantom.blocks()))

        res0 = rec.alloc("rot.res0", limbs)
        res1 = rec.alloc("rot.res1", limbs)
        if self.config.limb_reorder:
            if o1:
                self._emit_ksk_md_reorder(
                    rec,
                    limbs,
                    raised_digits,
                    limbs,
                    out0=None,
                    out1=res1,
                    combine_src=c0a,
                    final=res0,
                )
            else:
                md0 = rec.alloc("rot.md0", limbs)
                self._emit_ksk_md_reorder(
                    rec, limbs, raised_digits, limbs, out0=md0, out1=res1
                )
                for i in range(limbs):
                    rec.read(c0a[i], allocate=False)
                    rec.read(md0[i], allocate=False)
                    rec.write(res0[i])
        else:
            acc = self._emit_ksk(
                rec,
                limbs,
                raised_digits,
                count_digit_reads=True,
                count_output_writes=True,
            )
            assert acc is not None
            dropped0, body0 = self._split_raised(acc[0], limbs)
            dropped1, body1 = self._split_raised(acc[1], limbs)
            if o1:
                # c0-part ModDown output streams into the combine: its
                # write disappears; combine reads only c0a.
                self._emit_mod_down_poly(
                    rec, dropped0, body0, out=None, input_resident=False
                )
                for i in range(limbs):
                    rec.read(c0a[i], allocate=False)
                    rec.write(res0[i])
            else:
                md0 = rec.alloc("rot.md0", limbs)
                self._emit_mod_down_poly(
                    rec, dropped0, body0, md0, input_resident=False
                )
            self._emit_mod_down_poly(
                rec, dropped1, body1, res1, input_resident=False
            )
            if not o1:
                for i in range(limbs):
                    rec.read(c0a[i], allocate=False)
                    rec.read(md0[i], allocate=False)
                    rec.write(res0[i])

    def _emit_mult(self, rec: TraceRecorder, limbs: int) -> None:
        """Mult: tensor product, relinearise (KeySwitch of d2), rescale."""
        a0 = rec.alloc("ct.a0", limbs)
        a1 = rec.alloc("ct.a1", limbs)
        b0 = rec.alloc("ct.b0", limbs)
        b1 = rec.alloc("ct.b1", limbs)
        d0 = rec.alloc("mult.d0", limbs)
        d1 = rec.alloc("mult.d1", limbs)
        d2 = rec.alloc("mult.d2", limbs)
        if self.config.cache_o1:
            # Single fused pass over resident limbs: 4 reads, 3 writes.
            for i in range(limbs):
                rec.read(a0[i], allocate=False)
                rec.read(a1[i], allocate=False)
                rec.read(b0[i], allocate=False)
                rec.read(b1[i], allocate=False)
                rec.write(d0[i])
                rec.write(d1[i])
                rec.write(d2[i])
        else:
            # One pass per output polynomial: 8 reads, 3 writes total.
            for i in range(limbs):
                rec.read(a0[i], allocate=False)
                rec.read(b0[i], allocate=False)
                rec.write(d0[i])
            for i in range(limbs):
                rec.read(a0[i], allocate=False)
                rec.read(b1[i], allocate=False)
                rec.read(a1[i], allocate=False)
                rec.read(b0[i], allocate=False)
                rec.write(d1[i])
            for i in range(limbs):
                rec.read(a1[i], allocate=False)
                rec.read(b1[i], allocate=False)
                rec.write(d2[i])

        if self.config.mod_down_merge:
            # Fig. 4(c): stay in the raised basis, lift the tensor terms,
            # one merged ModDown dividing by P * q_l.
            raised_digits = self._emit_prefix(rec, d2, limbs)
            out0 = rec.alloc("mult.out0", limbs - 1)
            out1 = rec.alloc("mult.out1", limbs - 1)
            if self.config.limb_reorder:
                # PModUp lift of the tensor rows (read 2l, no writes).
                for i in range(limbs):
                    rec.read(d0[i], allocate=False)
                    rec.read(d1[i], allocate=False)
                self._emit_ksk_md_reorder(
                    rec, limbs, raised_digits, limbs - 1, out0, out1
                )
            else:
                acc = self._emit_ksk(
                    rec,
                    limbs,
                    raised_digits,
                    count_digit_reads=True,
                    count_output_writes=True,
                )
                assert acc is not None
                for i in range(limbs):
                    rec.read(d0[i], allocate=False)
                    rec.read(d1[i], allocate=False)
                for acc_poly, out in zip(acc, (out0, out1)):
                    dropped, body = self._split_raised(acc_poly, limbs - 1)
                    self._emit_mod_down_poly(
                        rec, dropped, body, out, input_resident=False
                    )
        else:
            u0, u1 = self._emit_key_switch(rec, d2, limbs)
            out0 = rec.alloc("mult.out0", limbs - 1)
            out1 = rec.alloc("mult.out1", limbs - 1)
            if self.config.cache_o1:
                # Combine + rescale fused on the resident ModDown output:
                # only the tensor rows are re-read.
                for i in range(limbs):
                    rec.read(d0[i], allocate=False)
                    rec.read(d1[i], allocate=False)
                for i in range(limbs - 1):
                    rec.write(out0[i])
                    rec.write(out1[i])
            else:
                v0 = rec.alloc("mult.v0", limbs)
                v1 = rec.alloc("mult.v1", limbs)
                for i in range(limbs):
                    rec.read(d0[i], allocate=False)
                    rec.read(u0[i], allocate=False)
                    rec.write(v0[i])
                    rec.read(d1[i], allocate=False)
                    rec.read(u1[i], allocate=False)
                    rec.write(v1[i])
                self._emit_rescale(rec, (v0, v1), limbs)

    def _emit_rescale(
        self, rec: TraceRecorder, polys: Sequence[Buffer], limbs: int
    ) -> None:
        """Rescale: per polynomial read ``l``, write ``l - 1``."""
        for poly in polys:
            out = rec.alloc("rescale.out", limbs - 1)
            for i in range(limbs):
                rec.read(poly[i], allocate=False)
            for i in range(limbs - 1):
                rec.write(out[i])

    def _emit_matvec(
        self, rec: TraceRecorder, limbs: int, diagonals: int
    ) -> None:
        """PtMatVecMult with BSGS rotations (mirrors perf.matvec)."""
        config = self.config
        raised = self._raised(limbs)
        baby, giant = bsgs_split(
            diagonals, larger_baby=config.mod_down_hoist
        )
        num_rotations = (baby - 1) + (giant - 1)
        c0 = rec.alloc("ct.c0", limbs)
        c1 = rec.alloc("ct.c1", limbs)
        raised_digits = self._emit_prefix(rec, c1, limbs)

        if config.mod_down_hoist:
            self._emit_matvec_hoisted(
                rec, limbs, diagonals, num_rotations, raised_digits
            )
            return

        # --- classic path: hoisted ModUp, per-rotation ModDown ---------
        baby_out: List[Tuple[Buffer, Buffer]] = []
        if config.cache_beta and baby > 1 and config.limb_reorder:
            baby_out = self._emit_baby_beta_reorder(
                rec, limbs, baby, raised_digits
            )
        elif config.cache_beta and baby > 1:
            # O(beta): limb-position-major inner products — each raised
            # digit limb is read once (the first rotation's miss) and
            # reused by the remaining baby rotations before it dies.
            accs = [
                (
                    rec.alloc("baby.acc0", raised),
                    rec.alloc("baby.acc1", raised),
                )
                for _ in range(baby - 1)
            ]
            for _ in range(baby - 1):
                rec.read_stream(KEY, self._key_limbs(limbs))
            for position in range(raised):
                position_blocks = tuple(
                    digit[position] for digit in raised_digits
                )
                for r in range(baby - 1):
                    for block in position_blocks:
                        rec.read(block)
                    rec.write(accs[r][0][position])
                    rec.write(accs[r][1][position])
                rec.flush_blocks(position_blocks)
            for r in range(baby - 1):
                baby_out.append(
                    self._emit_baby_mod_down(rec, limbs, accs[r])
                )
        elif config.cache_beta:
            # Degenerate BSGS (baby == 1): the analytical model still
            # charges the one-time digit read; emit it as one pass.
            for digit in raised_digits:
                for block in digit:
                    rec.read(block, allocate=False)
        else:
            for _ in range(baby - 1):
                if config.limb_reorder:
                    out0 = rec.alloc("baby.out0", limbs)
                    out1 = rec.alloc("baby.out1", limbs)
                    self._emit_ksk_md_reorder(
                        rec, limbs, raised_digits, limbs, out0, out1
                    )
                    baby_out.append((out0, out1))
                else:
                    acc = self._emit_ksk(
                        rec,
                        limbs,
                        raised_digits,
                        count_digit_reads=True,
                        count_output_writes=True,
                    )
                    assert acc is not None
                    baby_out.append(
                        self._emit_baby_mod_down(rec, limbs, acc)
                    )

        # Plaintext products against each (pre-rotated) diagonal.
        rotated = baby_out + [(c0, c1)]
        for d in range(diagonals):
            rec.read_stream(PT, limbs)
            rot0, rot1 = rotated[d % len(rotated)]
            for i in range(limbs):
                rec.read(rot0[i], allocate=False)
                rec.read(rot1[i], allocate=False)
        # Giant-step rotations of the accumulated partial sums.
        for _ in range(giant - 1):
            self._emit_rotate(rec, limbs)
        # Write the accumulated output once, then the mandatory Rescale.
        out0 = rec.alloc("matvec.out0", limbs)
        out1 = rec.alloc("matvec.out1", limbs)
        rec.write_buffer(out0)
        rec.write_buffer(out1)
        self._emit_rescale(rec, (out0, out1), limbs)

    def _emit_baby_mod_down(
        self,
        rec: TraceRecorder,
        limbs: int,
        acc: Tuple[Buffer, Buffer],
    ) -> Tuple[Buffer, Buffer]:
        """ModDown pair of one baby rotation's DRAM-resident rows."""
        out0 = rec.alloc("baby.out0", limbs)
        out1 = rec.alloc("baby.out1", limbs)
        for acc_poly, out in zip(acc, (out0, out1)):
            dropped, body = self._split_raised(acc_poly, limbs)
            self._emit_mod_down_poly(
                rec, dropped, body, out, input_resident=False
            )
        return out0, out1

    def _emit_baby_beta_reorder(
        self,
        rec: TraceRecorder,
        limbs: int,
        baby: int,
        raised_digits: List[RaisedDigit],
    ) -> List[Tuple[Buffer, Buffer]]:
        """O(beta) + limb re-ordering composed over the baby rotations.

        Every rotation's key-switch rows stay on chip (reorder claims
        ``count_output_writes=False`` and ``input_resident=True``) while
        the digit limbs are read once for *all* rotations (beta claims
        the one-time read).  Honouring both at once needs the special
        limbs of **every** baby rotation resident simultaneously —
        ``2 * num_special_limbs * (baby - 1)`` limbs, far beyond the
        paper's alpha-limb threshold.  At realistic capacities the pins
        fail and the re-reads miss: the composition's fit threshold is
        broken, which is exactly what the validator reports.
        """
        raised = self._raised(limbs)
        for _ in range(baby - 1):
            rec.read_stream(KEY, self._key_limbs(limbs))
        acc0s = [rec.alloc("baby.acc0", raised) for _ in range(baby - 1)]
        acc1s = [rec.alloc("baby.acc1", raised) for _ in range(baby - 1)]
        outs = [
            (
                rec.alloc("baby.out0", limbs),
                rec.alloc("baby.out1", limbs),
            )
            for _ in range(baby - 1)
        ]
        spec_blocks = tuple(
            acc[i]
            for acc in acc0s + acc1s
            for i in range(limbs, raised)
        )
        # Special (to-be-dropped) positions first: their accumulated sums
        # must be resident before any body limb can be converted.
        for position in range(limbs, raised):
            position_blocks = tuple(d[position] for d in raised_digits)
            for r in range(baby - 1):
                for block in position_blocks:
                    rec.read(block)
                rec.scratch(acc0s[r][position])
                rec.scratch(acc1s[r][position])
            rec.flush_blocks(position_blocks)
        rec.pin_blocks(spec_blocks)
        # Body positions: produce each rotation's row limb, convert it
        # against that rotation's resident specials, write the output.
        for position in range(limbs):
            position_blocks = tuple(d[position] for d in raised_digits)
            for r in range(baby - 1):
                for block in position_blocks:
                    rec.read(block)
                rec.scratch(acc0s[r][position])
                for i in range(limbs, raised):
                    rec.read(acc0s[r][i])
                rec.read(acc0s[r][position])
                rec.write(outs[r][0][position])
                rec.scratch(acc1s[r][position])
                for i in range(limbs, raised):
                    rec.read(acc1s[r][i])
                rec.read(acc1s[r][position])
                rec.write(outs[r][1][position])
                rec.flush_blocks(
                    (acc0s[r][position], acc1s[r][position])
                )
            rec.flush_blocks(position_blocks)
        rec.unpin_blocks(spec_blocks)
        rec.flush_blocks(spec_blocks)
        return outs

    def _emit_matvec_hoisted(
        self,
        rec: TraceRecorder,
        limbs: int,
        diagonals: int,
        num_rotations: int,
        raised_digits: List[RaisedDigit],
    ) -> None:
        """Fig. 5(c): every rotation is an inner product, one ModDown."""
        config = self.config
        raised = self._raised(limbs)
        # Degenerate single-diagonal case: no rotations at all, but the
        # O(beta) one-time digit read is still charged analytically.
        rounds = num_rotations or (1 if config.cache_beta else 0)
        for _ in range(num_rotations):
            rec.read_stream(KEY, self._key_limbs(limbs))
        sum0 = rec.alloc("hoist.sum0", raised)
        sum1 = rec.alloc("hoist.sum1", raised)
        diag_rows = [
            rec.alloc("hoist.c0rot", limbs) for _ in range(diagonals)
        ]
        # Special (to-be-dropped) limb positions first, so their
        # accumulated sums are resident when the body conversion runs.
        for position in range(limbs, raised):
            position_blocks = tuple(
                digit[position] for digit in raised_digits
            )
            if config.cache_beta:
                for _ in range(rounds):
                    for block in position_blocks:
                        rec.read(block)
                rec.flush_blocks(position_blocks)
            else:
                for _ in range(rounds):
                    for block in position_blocks:
                        rec.read(block, allocate=False)
            rec.scratch(sum0[position])
            rec.scratch(sum1[position])
        rec.pin_blocks(tuple(sum0[i] for i in range(limbs, raised)))
        rec.pin_blocks(tuple(sum1[i] for i in range(limbs, raised)))
        md0 = rec.alloc("hoist.md0", limbs)
        md1 = rec.alloc("hoist.md1", limbs)
        spec0 = [sum0[i] for i in range(limbs, raised)]
        spec1 = [sum1[i] for i in range(limbs, raised)]
        for position in range(limbs):
            position_blocks = tuple(
                digit[position] for digit in raised_digits
            )
            if config.cache_beta:
                for _ in range(rounds):
                    for block in position_blocks:
                        rec.read(block)
                rec.flush_blocks(position_blocks)
            else:
                for _ in range(rounds):
                    for block in position_blocks:
                        rec.read(block, allocate=False)
            rec.scratch(sum0[position])
            rec.scratch(sum1[position])
            # Per-diagonal plaintext product + accumulation at this limb.
            for d in range(diagonals):
                rec.read_stream(PT, 1)
                rec.read(diag_rows[d][position], allocate=False)
            # The single deferred ModDown, fused per body limb.
            for b in spec0:
                rec.read(b)
            rec.read(sum0[position])
            rec.write(md0[position])
            for b in spec1:
                rec.read(b)
            rec.read(sum1[position])
            rec.write(md1[position])
            rec.flush_blocks((sum0[position], sum1[position]))
        rec.unpin_blocks(tuple(spec0))
        rec.unpin_blocks(tuple(spec1))
        rec.flush_blocks(tuple(spec0))
        rec.flush_blocks(tuple(spec1))
        # One output write pass, then the mandatory Rescale.
        out0 = rec.alloc("matvec.out0", limbs)
        out1 = rec.alloc("matvec.out1", limbs)
        rec.write_buffer(out0)
        rec.write_buffer(out1)
        self._emit_rescale(rec, (out0, out1), limbs)

    # ------------------------------------------------------------------
    # Public schedules (fresh recorder each, paired with analytical cost)
    # ------------------------------------------------------------------
    def _finish(
        self, rec: TraceRecorder, label: str, analytical: CostReport
    ) -> Schedule:
        with obs.span("memsim:schedule", primitive=label):
            trace = rec.finish()
        return Schedule(label, trace, analytical)

    def decomp(self, limbs: int) -> Schedule:
        rec = self._recorder("decomp")
        src = rec.alloc("ct.c1", limbs)
        self._emit_decomp_pass(rec, src)
        return self._finish(rec, "decomp", self.costs.decomp(limbs))

    def mod_up(self, limbs: int) -> Schedule:
        rec = self._recorder("mod_up")
        d = min(self._alpha, limbs)
        digit = rec.alloc("decomp.digit", d)
        self._emit_mod_up(
            rec,
            limbs,
            0,
            [digit[i] for i in range(d)],
            fused_intt=False,
            digit_resident=False,
        )
        return self._finish(
            rec, "mod_up", self.costs.mod_up(limbs, d, fused_intt=False)
        )

    def ksk_inner_product(self, limbs: int) -> Schedule:
        rec = self._recorder("ksk_inner_product")
        raised = self._raised(limbs)
        digits = [
            list(rec.alloc("modup.raised", raised).blocks())
            for _ in range(self._beta(limbs))
        ]
        self._emit_ksk(
            rec,
            limbs,
            digits,
            count_digit_reads=True,
            count_output_writes=True,
        )
        return self._finish(
            rec, "ksk_inner_product", self.costs.ksk_inner_product(limbs)
        )

    def mod_down(self, limbs: int) -> Schedule:
        rec = self._recorder("mod_down")
        acc = rec.alloc("ksk.acc0", self._raised(limbs))
        out = rec.alloc("md.out", limbs)
        dropped, body = self._split_raised(acc, limbs)
        self._emit_mod_down_poly(
            rec, dropped, body, out, input_resident=False
        )
        return self._finish(
            rec, "mod_down", self.costs.mod_down(limbs, polys=1)
        )

    def key_switch(self, limbs: int) -> Schedule:
        rec = self._recorder("key_switch")
        src = rec.alloc("ct.c1", limbs)
        self._emit_key_switch(rec, src, limbs)
        return self._finish(rec, "key_switch", self.costs.key_switch(limbs))

    def mult(self, limbs: int) -> Schedule:
        rec = self._recorder("mult")
        self._emit_mult(rec, limbs)
        return self._finish(rec, "mult", self.costs.mult(limbs))

    def rotate(self, limbs: int) -> Schedule:
        rec = self._recorder("rotate")
        self._emit_rotate(rec, limbs)
        return self._finish(rec, "rotate", self.costs.rotate(limbs))

    def rescale(self, limbs: int) -> Schedule:
        rec = self._recorder("rescale")
        v0 = rec.alloc("ct.c0", limbs)
        v1 = rec.alloc("ct.c1", limbs)
        self._emit_rescale(rec, (v0, v1), limbs)
        return self._finish(
            rec, "rescale", self.costs.rescale(limbs, polys=2)
        )

    def pt_mult(self, limbs: int) -> Schedule:
        rec = self._recorder("pt_mult")
        c0 = rec.alloc("ct.c0", limbs)
        c1 = rec.alloc("ct.c1", limbs)
        rec.read_stream(PT, limbs)
        if self.config.cache_o1:
            out0 = rec.alloc("ptmult.out0", limbs - 1)
            out1 = rec.alloc("ptmult.out1", limbs - 1)
            for poly, out in ((c0, out0), (c1, out1)):
                for i in range(limbs):
                    rec.read(poly[i], allocate=False)
                for i in range(limbs - 1):
                    rec.write(out[i])
        else:
            v0 = rec.alloc("ptmult.v0", limbs)
            v1 = rec.alloc("ptmult.v1", limbs)
            for poly, out in ((c0, v0), (c1, v1)):
                for i in range(limbs):
                    rec.read(poly[i], allocate=False)
                    rec.write(out[i])
            self._emit_rescale(rec, (v0, v1), limbs)
        return self._finish(rec, "pt_mult", self.costs.pt_mult(limbs))

    def add(self, limbs: int) -> Schedule:
        rec = self._recorder("add")
        a0 = rec.alloc("ct.a0", limbs)
        a1 = rec.alloc("ct.a1", limbs)
        b0 = rec.alloc("ct.b0", limbs)
        b1 = rec.alloc("ct.b1", limbs)
        out0 = rec.alloc("add.out0", limbs)
        out1 = rec.alloc("add.out1", limbs)
        for i in range(limbs):
            rec.read(a0[i], allocate=False)
            rec.read(b0[i], allocate=False)
            rec.write(out0[i])
            rec.read(a1[i], allocate=False)
            rec.read(b1[i], allocate=False)
            rec.write(out1[i])
        return self._finish(rec, "add", self.costs.add(limbs))

    def pt_add(self, limbs: int) -> Schedule:
        rec = self._recorder("pt_add")
        c0 = rec.alloc("ct.c0", limbs)
        out = rec.alloc("ptadd.out", limbs)
        rec.read_stream(PT, limbs)
        for i in range(limbs):
            rec.read(c0[i], allocate=False)
            rec.write(out[i])
        return self._finish(rec, "pt_add", self.costs.pt_add(limbs))

    def automorph(self, limbs: int) -> Schedule:
        rec = self._recorder("automorph")
        c0 = rec.alloc("ct.c0", limbs)
        c1 = rec.alloc("ct.c1", limbs)
        out0 = rec.alloc("auto.out0", limbs)
        out1 = rec.alloc("auto.out1", limbs)
        for poly, out in ((c0, out0), (c1, out1)):
            for i in range(limbs):
                rec.read(poly[i], allocate=False)
                rec.write(out[i])
        return self._finish(rec, "automorph", self.costs.automorph(limbs))

    def mod_raise(self, limbs_from: int, limbs_to: int) -> Schedule:
        rec = self._recorder("mod_raise")
        for _ in range(2):
            src = rec.alloc("ct.low", limbs_from)
            out = rec.alloc("ct.raised", limbs_to)
            for i in range(limbs_from):
                rec.read(src[i], allocate=False)
            rec.write_buffer(out)
        return self._finish(
            rec, "mod_raise", self.costs.mod_raise(limbs_from, limbs_to)
        )

    def pt_mat_vec_mult(self, limbs: int, diagonals: int) -> Schedule:
        rec = self._recorder("pt_mat_vec_mult")
        self._emit_matvec(rec, limbs, diagonals)
        return self._finish(
            rec,
            "pt_mat_vec_mult",
            pt_mat_vec_mult_cost(self.costs, limbs, diagonals),
        )

    # ------------------------------------------------------------------
    # Composed bootstrap phase
    # ------------------------------------------------------------------
    def bootstrap_units(self) -> List[ScheduleUnit]:
        """One ScheduleUnit per step of :func:`~repro.perf.bootstrap.bootstrap_plan`.

        Each step's op is the builder method that emits it, so the units
        follow the model's walk step for step.  The scaled analytical
        costs sum bit-exactly to the ledger total; each unit is replayed
        cold and its simulated traffic scaled the same way, matching the
        per-operation independence of the analytical model.
        """
        plan = bootstrap_plan(self.params)
        units: List[ScheduleUnit] = []
        with obs.span("memsim:bootstrap_units"):
            for step in plan:
                sched = getattr(self, step.op)(*step.args)
                units.append(
                    ScheduleUnit(
                        step.op,
                        step.phase,
                        sched.trace,
                        sched.analytical,
                        step.count,
                    )
                )
        obs.count("memsim.bootstrap.units", len(units))
        return units


#: The builder methods that emit one primitive from a limb count alone.
PRIMITIVES = (
    "decomp",
    "mod_up",
    "ksk_inner_product",
    "mod_down",
    "key_switch",
    "mult",
    "rotate",
    "rescale",
    "pt_mult",
    "add",
    "pt_add",
    "automorph",
)
