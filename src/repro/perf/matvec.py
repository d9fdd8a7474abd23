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
"""

from __future__ import annotations

import math
from typing import Tuple

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


def pt_mat_vec_mult_cost(
    costs: PrimitiveCosts, limbs: int, diagonals: int
) -> CostReport:
    """Cost of one PtMatVecMult with ``diagonals`` non-zero diagonals.

    The result includes the final Rescale, so the transform consumes one
    level (call at the pre-consumption limb count).
    """
    params = costs.params
    config = costs.config
    n = params.ring_degree
    raised = params.raised_limbs(limbs)
    limb = params.limb_bytes

    baby, giant = bsgs_split(diagonals, larger_baby=config.mod_down_hoist)

    # --- shared hoisted ModUp of the input's c1 ------------------------
    # Each repeated sub-operation is priced once and weighted by its count.
    terms = [
        (costs.decomp(limbs), 1),
        *costs._mod_up_terms(limbs, fused_intt=config.cache_o1),
    ]
    if config.cache_beta:
        # The raised digits are read from DRAM a single time.
        terms.append((
            CostReport(
                OpCount(),
                MemTraffic(ct_read=params.beta(limbs) * raised * limb),
            ),
            1,
        ))

    if config.mod_down_hoist:
        # Fig. 5(c): every rotation (baby and giant alike) is an inner
        # product against its switching key; ModDown happens once.
        inner_product = costs.ksk_inner_product(
            limbs,
            count_digit_reads=not config.cache_beta,
            count_output_writes=False,  # accumulates on chip
        )
        terms.append((inner_product, (baby - 1) + (giant - 1)))
        # Plaintext multiplications + accumulation in the raised basis.
        # The key-switch rows stream from the on-chip accumulators; only the
        # rotated c0 rows and the diagonal plaintexts come from DRAM.
        per_diag_ops = OpCount(mults=2 * n * raised, adds=2 * n * raised)
        per_diag_traffic = MemTraffic(
            pt_read=limbs * limb, ct_read=limbs * limb
        )
        terms.append((CostReport(per_diag_ops, per_diag_traffic), diagonals))
        # The single deferred ModDown pair.
        terms.append(
            (costs.mod_down(limbs, polys=2, input_resident=True), 1)
        )
    else:
        # Baseline (Jung et al.): baby rotations share the ModUp (classic
        # ModUp hoisting) but each performs its own inner product and
        # ModDown pair; giant rotations act on distinct partial sums and
        # must be full Rotates.  A step count of zero prices nothing.
        reorder = config.limb_reorder
        if baby > 1:
            inner_product = costs.ksk_inner_product(
                limbs,
                count_digit_reads=not config.cache_beta,
                count_output_writes=not reorder,
            )
            mod_down = costs.mod_down(limbs, polys=2, input_resident=reorder)
            terms += [(inner_product, baby - 1), (mod_down, baby - 1)]
        # Inner plaintext products against each (pre-rotated) diagonal.
        per_diag_ops = OpCount(mults=2 * n * limbs, adds=2 * n * limbs)
        per_diag_traffic = MemTraffic(
            pt_read=limbs * limb, ct_read=2 * limbs * limb
        )
        terms.append((CostReport(per_diag_ops, per_diag_traffic), diagonals))
        # Giant-step rotations of the accumulated partial sums.
        if giant > 1:
            terms.append((costs.rotate(limbs), giant - 1))

    # Write the accumulated output once, then the mandatory Rescale after
    # the plaintext products.
    terms += [
        (
            CostReport(
                OpCount(adds=2 * n * limbs),
                MemTraffic(ct_write=2 * limbs * limb),
            ),
            1,
        ),
        (costs.rescale(limbs, polys=2), 1),
    ]
    return CostReport.weighted_sum(terms)
