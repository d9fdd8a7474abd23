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

:func:`bootstrap_plan` declares this walk once, as the ordered steps it
prices: each step's op and arguments, repeat count, ledger label and
span path.  :class:`BootstrapModel` prices those steps, and
:meth:`repro.memsim.schedules.ScheduleBuilder.bootstrap_units` replays
the same steps as memory traces.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass
from itertools import groupby
from operator import attrgetter
from typing import (
    Dict,
    Hashable,
    List,
    NamedTuple,
    Optional,
    Sequence,
    Tuple,
    Union,
)

from repro.obs import state as obs
from repro.params import CkksParams
from repro.perf.cache import CacheModel
from repro.perf.events import CostReport
from repro.perf.ledger import CostLedger
from repro.perf.optimizations import MADConfig
from repro.perf.primitives import PrimitiveCosts
from repro.perf.matvec import MatVecUnits, pt_mat_vec_mult_cost


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


#: The EvalMod counts :func:`bootstrap_plan` charges.
EVAL_MOD_PROFILE = EvalModProfile()

#: A sweep run's level-cost table (DESIGN §8), keyed on ``(op, args,
#: PrimitiveCosts.level_key)``: the cost of one repeat of each EvalMod
#: step, and each DFT stage's level units under ``args = (limbs,)``.
LevelCosts = Dict[Hashable, Union[CostReport, MatVecUnits]]

#: A span under the bootstrap's root span: its label and attributes.
SpanKey = Tuple[str, Tuple[Tuple[str, int], ...]]


class BootstrapStep(NamedTuple):
    """One priced step of the level walk: ``count`` repeats of ``op(*args)``.

    ``op`` names a method of :class:`PrimitiveCosts` and of
    :class:`~repro.memsim.schedules.ScheduleBuilder` alike; the model
    prices ``pt_mat_vec_mult`` with :func:`pt_mat_vec_mult_cost`, or from
    its level's tabled :class:`MatVecUnits`.
    """

    op: str
    #: ``(limbs,)``; ``(limbs, diagonals)`` for a DFT stage; ModRaise's
    #: ``(2, L)``.
    args: Tuple[int, ...]
    count: int
    #: The label of the step's ledger entry.
    label: str
    #: The spans enclosing the step's cost under the root, outermost
    #: first; the last is the step's own (leaf) span.
    spans: Tuple[SpanKey, ...]

    @property
    def phase(self) -> str:
        """The Algorithm 4 phase: the outermost span's label."""
        return self.spans[0][0]


def _ceil_root(value: int, k: int) -> int:
    """The least integer ``r >= 1`` with ``r ** k >= value``, exactly.

    The float root only seeds the search: ``2^15 ** (1 / 5)`` evaluates to
    8.000000000000002, whose ceiling is 9.
    """
    root = max(1, round(value ** (1.0 / k)))
    while root**k < value:
        root += 1
    while root > 1 and (root - 1) ** k >= value:
        root -= 1
    return root


def dft_diagonals(params: CkksParams) -> int:
    """Non-zero diagonals per DFT stage matrix: ``⌈n^(1/fftIter)⌉``, at
    least 2."""
    return max(2, _ceil_root(params.slots, params.fft_iter))


def _dft_steps(
    phase: str, iteration: str, top: int, fft_iter: int, diagonals: int
) -> List[BootstrapStep]:
    """``fft_iter`` PtMatVecMults from ``top`` limbs down, one level each."""
    return [
        BootstrapStep(
            "pt_mat_vec_mult",
            (level, diagonals),
            1,
            phase,
            (
                (phase, ()),
                (
                    iteration,
                    (("iter", i), ("level", level), ("diagonals", diagonals)),
                ),
            ),
        )
        for i, level in enumerate(range(top, top - fft_iter, -1))
    ]


def bootstrap_plan(params: CkksParams) -> Tuple[BootstrapStep, ...]:
    """Every priced step of one bootstrap at ``params``, in walk order.

    Raises ValueError when the level budget leaves no output limb.
    """
    if not params.supports_bootstrapping():
        raise ValueError(
            f"{params.describe()} cannot bootstrap (level budget)"
        )
    fft_iter = params.fft_iter
    diagonals = dft_diagonals(params)
    # Volatile values (loop index, live limb count) go into span
    # *attributes*, never labels: cross-run diff alignment keys on the
    # label path, and repeated siblings are disambiguated by position
    # (repro.obs.export.compute_span_paths).
    top = params.max_limbs
    steps = [
        BootstrapStep(
            "mod_raise", (2, top), 1, "ModRaise", (("ModRaise", (("level", top),)),)
        )
    ]
    steps += _dft_steps("CoeffToSlot", "CoeffToSlot:iter", top, fft_iter, diagonals)
    profile = EVAL_MOD_PROFILE
    top -= fft_iter
    for depth, level in enumerate(range(top, top - params.eval_mod_depth, -1)):
        mults = profile.mults_per_level + (
            profile.basis_setup_mults if depth == 0 else 0
        )
        enclosing = (
            ("EvalMod", ()),
            ("EvalMod:level", (("depth", depth), ("level", level))),
        )
        at = (("level", level),)
        for op, count, label in (
            ("mult", mults, "EvalMod:Mult"),
            ("pt_mult", profile.pt_mults_per_level, "EvalMod:PtMult"),
            ("add", profile.adds_per_level, "EvalMod:Add"),
        ):
            steps.append(
                BootstrapStep(op, (level,), count, label, (*enclosing, (label, at)))
            )
    top -= params.eval_mod_depth
    steps += _dft_steps("SlotToCoeff", "SlotToCoeff:iter", top, fft_iter, diagonals)
    return tuple(steps)


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
    """SimFHE's bootstrapping cost model: :func:`bootstrap_plan`, priced.

    Args:
        params: CKKS parameters (must support bootstrapping).
        config: MAD optimization flags.
        cache: optional on-chip memory bound; flags the cache cannot
            support are disabled, mirroring SimFHE's auto-deployment.
        level_costs: optional level-cost table shared by the models of
            one sweep run; each EvalMod step is then priced once per key
            of :data:`LevelCosts`, and each level's PtMatVecMult units
            once, whatever its DFT stages' diagonal counts.  Without one
            every step is priced afresh.
    """

    def __init__(
        self,
        params: CkksParams,
        config: MADConfig = MADConfig.none(),
        cache: Optional[CacheModel] = None,
        level_costs: Optional[LevelCosts] = None,
    ):
        self.params = params
        self.plan = bootstrap_plan(params)
        self.costs = PrimitiveCosts(params, config, cache)
        self.level_costs = level_costs

    # ------------------------------------------------------------------
    def _terms(self, step: BootstrapStep) -> Sequence[Tuple[CostReport, int]]:
        """``(cost, count)`` pairs whose weighted sum is the cost of
        ``step``, every repeat included.

        With a level-cost table, an EvalMod step is one repeat's tabled
        cost times its count, and a DFT stage is its level's tabled
        :class:`MatVecUnits` weighted by the stage's own counts.
        """
        table = self.level_costs
        if table is None or step.op == "mod_raise":
            return ((self._price_once(step), step.count),)
        level_key = self.costs.level_key
        if step.op == "pt_mat_vec_mult":
            limbs, diagonals = step.args
            key = (step.op, (limbs,), level_key)
            units = table.get(key)
            if units is None:
                units = table[key] = MatVecUnits(self.costs, limbs)
            assert isinstance(units, MatVecUnits)
            return [
                (cost, count * step.count)
                for cost, count in units.terms(diagonals)
            ]
        key = (step.op, step.args, level_key)
        cost = table.get(key)
        if cost is None:
            cost = table[key] = self._price_once(step)
        assert isinstance(cost, CostReport)
        return ((cost, step.count),)

    def _price(self, step: BootstrapStep) -> CostReport:
        """The cost of ``step``, every repeat included."""
        return CostReport.weighted_sum(self._terms(step))

    def _price_once(self, step: BootstrapStep) -> CostReport:
        # Both calls resolve at call time, so a patched op is the one run.
        if step.op == "pt_mat_vec_mult":
            return pt_mat_vec_mult_cost(self.costs, *step.args)
        return getattr(self.costs, step.op)(*step.args)

    def _trace(
        self, steps: Sequence[BootstrapStep], depth: int, ledger: CostLedger
    ) -> None:
        """Price ``steps`` under their spans from ``depth`` inward."""
        for (label, attrs), group in groupby(
            steps, key=lambda step: step.spans[depth]
        ):
            members = tuple(group)
            with obs.span(label, **dict(attrs)):
                if len(members[0].spans) > depth + 1:
                    self._trace(members, depth + 1, ledger)
                else:
                    for step in members:
                        cost = self._price(step)
                        obs.record_cost(cost)
                        ledger.add(step.label, cost)

    def ledger(self) -> CostLedger:
        """Sub-operation-labeled cost ledger of one bootstrap: one entry
        per step of :attr:`plan`.

        When a tracer is installed (:mod:`repro.obs`) the call also emits a
        span tree — a root span carrying the parameter/MAD-config/cache
        metadata over each step's :attr:`BootstrapStep.spans` — with each
        leaf recording exactly the CostReport added to the ledger.  The
        traced span-cost sum is therefore bit-identical to the untraced
        total.
        """
        ledger = CostLedger()
        if not obs.tracing_enabled():
            for step in self.plan:
                ledger.add(step.label, self._price(step))
            return ledger
        cache = self.costs.cache
        with obs.span(
            "Bootstrap",
            params=self.params.describe(),
            config=asdict(self.costs.config),
            cache_mb=None if cache is None else cache.megabytes,
        ):
            self._trace(self.plan, 0, ledger)
        return ledger

    def cost(self) -> BootstrapBreakdown:
        """Full per-phase cost of one bootstrapping operation."""
        phases: Dict[str, CostReport] = {}
        for step, (_, cost) in zip(self.plan, self.ledger()):
            phases[step.phase] = phases.get(step.phase, CostReport()) + cost
        return BootstrapBreakdown(
            mod_raise=phases["ModRaise"],
            coeff_to_slot=phases["CoeffToSlot"],
            eval_mod=phases["EvalMod"],
            slot_to_coeff=phases["SlotToCoeff"],
        )

    def total_cost(self) -> CostReport:
        """The cost of one bootstrap.

        Untraced, one weighted sum over every step's ``(cost, count)``
        pairs, with no ledger; traced, the total of :meth:`ledger`, whose
        span tree records each step's cost.  Both sum the same integers.
        """
        if obs.tracing_enabled():
            return self.ledger().total
        return CostReport.weighted_sum(
            term for step in self.plan for term in self._terms(step)
        )
