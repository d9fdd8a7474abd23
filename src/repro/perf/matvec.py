"""Cost model of ``PtMatVecMult`` — homomorphic plaintext matrix-vector
products evaluated with baby-step/giant-step rotations.

This is where three MAD techniques land:

* **O(beta) caching** — the raised digits produced by the (hoisted) ModUp
  are read from DRAM once per transform instead of once per rotation.
* **ModDown hoisting** (Fig. 5) — one ModUp group and a single ModDown pair
  serve the whole transform; the plaintext multiplications and the
  accumulation happen in the raised basis.  The paper pairs this with a
  *larger baby step* in the BSGS split, which re-reads switching keys more
  often (+25% key reads) but reduces overall DRAM traffic.
* **Key compression** — halves the key-read traffic of every rotation
  (applied inside :meth:`PrimitiveCosts.ksk_inner_product`).

A transform's cost is a level's :class:`MatVecUnits`, which depend on the
limb count, weighted by the counts :func:`bsgs_split` gives its diagonal
count.
"""

from __future__ import annotations

import math
from typing import List, Optional, Tuple

from repro.perf.events import CostReport, MemTraffic, OpCount
from repro.perf.primitives import PrimitiveCosts


def bsgs_split(diagonals: int, larger_baby: bool = False) -> Tuple[int, int]:
    """Baby-step size and giant-step count for ``diagonals`` diagonals."""
    if diagonals < 1:
        raise ValueError(f"need at least one diagonal, got {diagonals}")
    baby = 1 << max(round(math.log2(math.sqrt(diagonals))), 0)
    if larger_baby:
        baby *= 2
    giant = math.ceil(diagonals / baby)
    return baby, giant


class MatVecUnits:
    """One level's PtMatVecMult unit costs, apart from how often each repeats.

    A transform at ``limbs`` limbs repeats a few priced units, and only
    their counts depend on its diagonal count (:meth:`terms`, through
    :func:`bsgs_split`).  So a sweep run's level-cost table holds one unit
    set per level, however many diagonal counts its DFT stages use
    (DESIGN §8).  The units are:

    * :attr:`fixed`, once per transform: the Decomp and ModUps of the
      input's ``c1``, the O(beta) digit re-read, the deferred ModDown pair
      under ModDown hoisting, the output write and the Rescale;
    * :attr:`per_diagonal`, one plaintext product and accumulation;
    * the rotation unit: one key-switch inner product per baby and giant
      rotation under ModDown hoisting, one inner product and ModDown pair
      per baby rotation at baseline;
    * the baseline's giant Rotate.

    The last two are priced on first use, so a zero count prices nothing.
    """

    __slots__ = ("costs", "limbs", "fixed", "per_diagonal", "_rotation", "_giant")

    def __init__(self, costs: PrimitiveCosts, limbs: int) -> None:
        params = costs.params
        config = costs.config
        n = params.ring_degree
        raised = params.raised_limbs(limbs)
        limb = params.limb_bytes

        # --- shared hoisted ModUp of the input's c1 ------------------------
        # Each repeated sub-operation is priced once and weighted by its count.
        fixed = [
            (costs.decomp(limbs), 1),
            *costs._mod_up_terms(limbs, fused_intt=config.cache_o1),
        ]
        if config.cache_beta:
            # The raised digits are read from DRAM a single time.
            fixed.append((
                CostReport(
                    OpCount(),
                    MemTraffic(ct_read=params.beta(limbs) * raised * limb),
                ),
                1,
            ))
        if config.mod_down_hoist:
            # Fig. 5(c): plaintext multiplications + accumulation in the
            # raised basis.  The key-switch rows stream from the on-chip
            # accumulators; only the rotated c0 rows and the diagonal
            # plaintexts come from DRAM.  ModDown happens once.
            self.per_diagonal = CostReport(
                OpCount(mults=2 * n * raised, adds=2 * n * raised),
                MemTraffic(pt_read=limbs * limb, ct_read=limbs * limb),
            )
            fixed.append(
                (costs.mod_down(limbs, polys=2, input_resident=True), 1)
            )
        else:
            # Inner plaintext products against each (pre-rotated) diagonal.
            self.per_diagonal = CostReport(
                OpCount(mults=2 * n * limbs, adds=2 * n * limbs),
                MemTraffic(pt_read=limbs * limb, ct_read=2 * limbs * limb),
            )
        # Write the accumulated output once, then the mandatory Rescale
        # after the plaintext products.
        fixed += [
            (
                CostReport(
                    OpCount(adds=2 * n * limbs),
                    MemTraffic(ct_write=2 * limbs * limb),
                ),
                1,
            ),
            (costs.rescale(limbs, polys=2), 1),
        ]
        self.costs = costs
        self.limbs = limbs
        self.fixed = CostReport.weighted_sum(fixed)
        self._rotation: Optional[CostReport] = None
        self._giant: Optional[CostReport] = None

    def terms(self, diagonals: int) -> List[Tuple[CostReport, int]]:
        """``(unit cost, count)`` pairs of one PtMatVecMult with
        ``diagonals`` non-zero diagonals (a
        :meth:`CostReport.weighted_sum` term list)."""
        hoist = self.costs.config.mod_down_hoist
        baby, giant = bsgs_split(diagonals, larger_baby=hoist)
        terms = [(self.fixed, 1), (self.per_diagonal, diagonals)]
        if hoist:
            # Every rotation, baby and giant alike, is an inner product
            # against its switching key.
            rotations, giant_rotates = (baby - 1) + (giant - 1), 0
        else:
            # Baseline (Jung et al.): baby rotations share the ModUp
            # (classic ModUp hoisting) but each performs its own inner
            # product and ModDown pair; giant rotations act on distinct
            # partial sums and must be full Rotates.
            rotations, giant_rotates = baby - 1, giant - 1
        if rotations:
            terms.append((self._rotation_unit(), rotations))
        if giant_rotates:
            terms.append((self._giant_unit(), giant_rotates))
        return terms

    def _rotation_unit(self) -> CostReport:
        if self._rotation is None:
            costs, limbs = self.costs, self.limbs
            config = costs.config
            if config.mod_down_hoist:
                self._rotation = costs.ksk_inner_product(
                    limbs,
                    count_digit_reads=not config.cache_beta,
                    count_output_writes=False,  # accumulates on chip
                )
            else:
                reorder = config.limb_reorder
                self._rotation = costs.ksk_inner_product(
                    limbs,
                    count_digit_reads=not config.cache_beta,
                    count_output_writes=not reorder,
                ) + costs.mod_down(limbs, polys=2, input_resident=reorder)
        return self._rotation

    def _giant_unit(self) -> CostReport:
        if self._giant is None:
            self._giant = self.costs.rotate(self.limbs)
        return self._giant


def pt_mat_vec_mult_cost(
    costs: PrimitiveCosts, limbs: int, diagonals: int
) -> CostReport:
    """Cost of one PtMatVecMult with ``diagonals`` non-zero diagonals: the
    level's :class:`MatVecUnits` weighted by their counts.

    The result includes the final Rescale, so the transform consumes one
    level (call at the pre-consumption limb count).
    """
    return CostReport.weighted_sum(MatVecUnits(costs, limbs).terms(diagonals))
