"""End-to-end CKKS bootstrapping cost model (Algorithm 4).

Phases and their level budget:

* **ModRaise** — basis extension from the exhausted modulus to ``L`` limbs.
* **CoeffToSlot** — ``fftIter`` PtMatVecMult iterations, one level each;
  each stage matrix of the radix-``r`` DFT factorisation has
  ``r = n^(1/fftIter)`` non-zero diagonals.
* **EvalMod** — polynomial approximation of modular reduction,
  ``eval_mod_depth`` (default 9) levels of Mult/PtMult work.
* **SlotToCoeff** — another ``fftIter`` PtMatVecMult iterations.

The output level is ``L - 2*fftIter - eval_mod_depth``, matching the
``log Q_1`` values of Table 6 for both parameter sets of Table 5.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass
from operator import attrgetter
from typing import Dict, Optional, Tuple

from repro.obs import state as obs
from repro.params import CkksParams
from repro.perf.cache import CacheModel
from repro.perf.events import CostReport
from repro.perf.optimizations import MADConfig
from repro.perf.primitives import LevelCosts, PrimitiveCosts
from repro.perf.matvec import pt_mat_vec_mult_cost


#: The :class:`CkksParams` fields the cost model reads.  ``PrimitiveCosts``,
#: :class:`BootstrapModel`, :func:`pt_mat_vec_mult_cost` and the
#: ``CacheModel.fits_*`` thresholds see a parameter set only through these
#: (``word_bytes`` through ``limb_bytes``); ``log_q``, ``log_special`` and
#: ``bit_precision`` never change a modelled cost.  Parameter sets with
#: equal :func:`cost_shape` therefore cost the same, and the sweep memo
#: keys on it.  ``tests/perf/test_model_properties.py`` checks that cost
#: is invariant under every other field and that every field is
#: classified.
COST_SHAPE_FIELDS: Tuple[str, ...] = (
    "log_n",
    "max_limbs",
    "dnum",
    "fft_iter",
    "eval_mod_depth",
    "word_bytes",
)

_shape_of = attrgetter(*COST_SHAPE_FIELDS)


def cost_shape(params: CkksParams) -> Tuple[int, ...]:
    """The values of :data:`COST_SHAPE_FIELDS`: all the model sees of ``params``."""
    return _shape_of(params)


@dataclass(frozen=True)
class EvalModProfile:
    """Operation counts per consumed level of the EvalMod phase.

    The defaults model a degree-~63 scaled-sine Chebyshev evaluation with
    double-angle refinement: a couple of ciphertext multiplications plus a
    plaintext multiplication and additions per level, with extra
    multiplications at the start to build the power basis.
    """

    mults_per_level: int = 4
    pt_mults_per_level: int = 2
    adds_per_level: int = 3
    basis_setup_mults: int = 9


@dataclass(frozen=True)
class BootstrapBreakdown:
    """Per-phase cost of one bootstrapping operation."""

    mod_raise: CostReport
    coeff_to_slot: CostReport
    eval_mod: CostReport
    slot_to_coeff: CostReport

    @property
    def total(self) -> CostReport:
        return (
            self.mod_raise
            + self.coeff_to_slot
            + self.eval_mod
            + self.slot_to_coeff
        )

    def phases(self) -> Dict[str, CostReport]:
        return {
            "ModRaise": self.mod_raise,
            "CoeffToSlot": self.coeff_to_slot,
            "EvalMod": self.eval_mod,
            "SlotToCoeff": self.slot_to_coeff,
        }


class BootstrapModel:
    """SimFHE's bootstrapping cost model.

    Args:
        params: CKKS parameters (must support bootstrapping).
        config: MAD optimization flags.
        cache: optional on-chip memory bound; flags the cache cannot
            support are disabled, mirroring SimFHE's auto-deployment.
        eval_mod: operation profile of the EvalMod phase.
        level_costs: optional level-cost table of a sweep run, handed to
            :class:`PrimitiveCosts`; without one every level is priced
            afresh.
    """

    def __init__(
        self,
        params: CkksParams,
        config: MADConfig = MADConfig.none(),
        cache: Optional[CacheModel] = None,
        eval_mod: EvalModProfile = EvalModProfile(),
        level_costs: Optional[LevelCosts] = None,
    ):
        if not params.supports_bootstrapping():
            raise ValueError(
                f"{params.describe()} cannot bootstrap (level budget)"
            )
        self.params = params
        self.costs = PrimitiveCosts(params, config, cache, level_costs)
        self.eval_mod_profile = eval_mod

    # ------------------------------------------------------------------
    @property
    def dft_diagonals(self) -> int:
        """Non-zero diagonals per DFT stage matrix: ``n^(1/fftIter)``."""
        n = self.params.slots
        return max(2, math.ceil(n ** (1.0 / self.params.fft_iter)))

    # ------------------------------------------------------------------
    def ledger(self) -> "CostLedger":
        """Sub-operation-labeled cost ledger of one bootstrap.

        When a tracer is installed (:mod:`repro.obs`) the call also emits a
        span tree — a root span carrying the parameter/MAD-config/cache
        metadata, one span per phase, one leaf span per consumed level —
        with each leaf recording exactly the CostReport added to the
        ledger.  The traced span-cost sum is therefore bit-identical to
        the untraced total; with tracing disabled every ``obs`` call is a
        no-op on a shared singleton.
        """
        from repro.perf.ledger import CostLedger

        params = self.params
        level = params.max_limbs
        diagonals = self.dft_diagonals
        ledger = CostLedger()
        if obs.tracing_enabled():
            # Root metadata is only worth computing when someone records it.
            root_meta = {
                "params": params.describe(),
                "config": asdict(self.costs.config),
                "cache_mb": (
                    self.costs.cache.megabytes
                    if self.costs.cache is not None
                    else None
                ),
            }
        else:
            root_meta = {}

        with obs.span("Bootstrap", **root_meta):
            with obs.span("ModRaise", level=level):
                cost = self.costs.mod_raise(2, level)
                obs.record_cost(cost)
            ledger.add("ModRaise", cost)

            # Volatile values (loop index, live limb count) go into span
            # *attributes*, never labels: cross-run diff alignment keys on
            # the label path, and repeated siblings are disambiguated by
            # position (repro.obs.export.compute_span_paths).
            with obs.span("CoeffToSlot"):
                for i in range(params.fft_iter):
                    with obs.span(
                        "CoeffToSlot:iter",
                        iter=i,
                        level=level,
                        diagonals=diagonals,
                    ):
                        cost = pt_mat_vec_mult_cost(
                            self.costs, level, diagonals
                        )
                        obs.record_cost(cost)
                    ledger.add("CoeffToSlot", cost)
                    level -= 1

            profile = self.eval_mod_profile
            with obs.span("EvalMod"):
                for depth in range(params.eval_mod_depth):
                    mults = profile.mults_per_level + (
                        profile.basis_setup_mults if depth == 0 else 0
                    )
                    with obs.span("EvalMod:level", depth=depth, level=level):
                        with obs.span("EvalMod:Mult", level=level):
                            mult_cost = self.costs.mult(level).scaled(mults)
                            obs.record_cost(mult_cost)
                        with obs.span("EvalMod:PtMult", level=level):
                            pt_cost = self.costs.pt_mult(level).scaled(
                                profile.pt_mults_per_level
                            )
                            obs.record_cost(pt_cost)
                        with obs.span("EvalMod:Add", level=level):
                            add_cost = self.costs.add(level).scaled(
                                profile.adds_per_level
                            )
                            obs.record_cost(add_cost)
                    ledger.add("EvalMod:Mult", mult_cost)
                    ledger.add("EvalMod:PtMult", pt_cost)
                    ledger.add("EvalMod:Add", add_cost)
                    level -= 1

            with obs.span("SlotToCoeff"):
                for i in range(params.fft_iter):
                    with obs.span(
                        "SlotToCoeff:iter",
                        iter=i,
                        level=level,
                        diagonals=diagonals,
                    ):
                        cost = pt_mat_vec_mult_cost(
                            self.costs, level, diagonals
                        )
                        obs.record_cost(cost)
                    ledger.add("SlotToCoeff", cost)
                    level -= 1

        assert level == params.bootstrap_output_limbs
        return ledger

    def cost(self) -> BootstrapBreakdown:
        """Full per-phase cost of one bootstrapping operation."""
        merged = self.ledger().by_label()
        eval_mod = (
            merged.get("EvalMod:Mult", CostReport())
            + merged.get("EvalMod:PtMult", CostReport())
            + merged.get("EvalMod:Add", CostReport())
        )
        return BootstrapBreakdown(
            mod_raise=merged["ModRaise"],
            coeff_to_slot=merged["CoeffToSlot"],
            eval_mod=eval_mod,
            slot_to_coeff=merged["SlotToCoeff"],
        )

    def total_cost(self) -> CostReport:
        """The cost of one bootstrap: one pass over :meth:`ledger`."""
        return self.ledger().total
