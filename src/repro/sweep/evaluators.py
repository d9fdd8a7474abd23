"""The sweep evaluators: one per sweep surface, held in one mapping.

A :class:`~repro.sweep.spec.SweepSpec` names its evaluator, so the name
is part of the spec's identity and fingerprint, and the engine resolves
it in :data:`EVALUATORS` when the sweep runs.  Each evaluator is a pure
function of ``(point, context)`` — the engine's determinism contract —
and reaches its domain modules through *lazy* imports so loading
:mod:`repro.sweep` never drags in the whole model.
Cost-model sub-evaluations are memoized for the run (see
:mod:`repro.sweep.memo`).  Bootstrap costs key on
``(cost_shape(params), config, cache_bytes)``: the model reads only the
parameter fields in :data:`repro.perf.COST_SHAPE_FIELDS`, so candidates
that differ only in ``log_q``, ``log_special`` or ``bit_precision``
share one evaluation (``tests/perf/test_model_properties.py`` checks
that invariance).  ``fig6.bar`` keys on the full ``params``, because the
HELR workload reads ``log_q``.

* ``search.candidate`` — one Table 5 candidate: bootstrap cost, roofline
  runtime and Han-Ki throughput on a hardware design.
* ``bootstrap.cost``   — one ablation grid point: bootstrap cost under a
  ``(params, config, cache_mb)`` coordinate (optionally a single-flag
  toggle via a ``flag`` axis).
* ``fig6.bar``         — one Fig. 6 bar: a design's MAD counterpart at a
  cache size running an ML workload.
* ``memsim.primitive`` — one Fig. 2 ladder cell: differential validation
  of one primitive's schedule at one rung capacity.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass
from typing import Any, Callable, Dict, Mapping, Optional

from repro.obs import state as obs
from repro.sweep.memo import Memo
from repro.sweep.spec import value_key

__all__ = [
    "EVALUATORS",
    "EVALUATOR_BOOTSTRAP_COST",
    "EVALUATOR_FIG6_BAR",
    "EVALUATOR_MEMSIM_PRIMITIVE",
    "EVALUATOR_SEARCH_CANDIDATE",
    "Evaluator",
    "get_evaluator",
    "memoized_bootstrap_cost",
]

EVALUATOR_SEARCH_CANDIDATE = "search.candidate"
EVALUATOR_BOOTSTRAP_COST = "bootstrap.cost"
EVALUATOR_FIG6_BAR = "fig6.bar"
EVALUATOR_MEMSIM_PRIMITIVE = "memsim.primitive"

#: fn(point, context, memo) -> result value.
EvaluatorFn = Callable[[Mapping[str, Any], Mapping[str, Any], Memo], Any]
#: row(value, point) -> JSON-able report row for that point.
RowFn = Callable[[Any, Mapping[str, Any]], Dict[str, Any]]


def _default_row(value: Any, point: Mapping[str, Any]) -> Dict[str, Any]:
    """Default report row: the value itself (must already be JSON-able)."""
    if isinstance(value, dict):
        return value
    return {"value": value}


@dataclass(frozen=True)
class Evaluator:
    """One point evaluator and the report row it makes of each value."""

    name: str
    fn: EvaluatorFn
    row: RowFn = _default_row


def memoized_bootstrap_cost(
    params: Any, config: Any, cache: Any, memo: Memo
) -> Any:
    """Total bootstrap cost, memoized on ``(cost_shape(params), config, cache_bytes)``.

    Parameter sets with equal :func:`~repro.perf.cost_shape` cost the
    same, so they share one entry; the cost returned for one of them is
    exactly the cost of any other.  A miss prices the bootstrap plan's
    steps through the run's level-cost table, ``memo.level_costs``, which
    only :class:`~repro.perf.BootstrapModel` reads.
    """
    from repro.perf import BootstrapModel, cost_shape

    cache_bytes = None if cache is None else cache.size_bytes
    return memo.get_or_compute(
        ("bootstrap_cost", cost_shape(params), config, cache_bytes),
        lambda: BootstrapModel(
            params, config, cache, level_costs=memo.level_costs
        ).total_cost(),
    )


# ----------------------------------------------------------------------
# search.candidate — the Table 5 brute-force search
# ----------------------------------------------------------------------
def _search_candidate(
    point: Mapping[str, Any], context: Mapping[str, Any], memo: Memo
) -> Any:
    from repro.hardware.runtime import estimate_runtime
    from repro.search.optimizer import ParameterSearchResult
    from repro.search.throughput import bootstrap_throughput

    params = point["params"]
    design = context["design"]
    config = context["config"]
    cache = design.cache if context.get("enforce_cache") else None
    cost = memoized_bootstrap_cost(params, config, cache, memo)
    runtime = estimate_runtime(cost, design)
    throughput = bootstrap_throughput(
        params.slots, params.log_q1, params.bit_precision, runtime.seconds
    )
    if obs.tracing_enabled():
        with obs.span("sweep:candidate", params=params.describe()):
            obs.record_cost(cost)
    return ParameterSearchResult(
        params=params, cost=cost, runtime=runtime, throughput=throughput
    )


def _search_row(value: Any, point: Mapping[str, Any]) -> Dict[str, Any]:
    params = value.params
    return {
        "params": value_key(params),
        "describe": params.describe(),
        "throughput": value.throughput,
        "runtime_ms": value.runtime.milliseconds,
        "bound": value.runtime.bound,
        "ops_total": value.cost.ops.total,
        "traffic_total": value.cost.traffic.total,
    }


# ----------------------------------------------------------------------
# bootstrap.cost — ablation grids (cache size, dnum, fftIter, flags)
# ----------------------------------------------------------------------
def _bootstrap_cost_point(
    point: Mapping[str, Any], context: Mapping[str, Any], memo: Memo
) -> Dict[str, Any]:
    from repro.perf import CacheModel

    params = point.get("params", context.get("params"))
    config = point.get("config", context.get("config"))
    cache_mb = point.get("cache_mb", context.get("cache_mb"))
    flag = point.get("flag")
    if params is None or config is None:
        raise ValueError("bootstrap.cost needs params and config (axis or context)")
    if flag is not None and flag != "baseline":
        config = config.with_(**{flag: True})
    cache = None if cache_mb is None else CacheModel.from_mb(cache_mb)
    cost = memoized_bootstrap_cost(params, config, cache, memo)
    if obs.tracing_enabled():
        with obs.span("sweep:ablation", params=params.describe()):
            obs.record_cost(cost)
    traffic = cost.traffic
    row: Dict[str, Any] = {
        "params": value_key(params),
        "cache_mb": cache_mb,
        "flag": flag,
        "giga_ops": cost.giga_ops(),
        "dram_gb": cost.gigabytes(),
        "ct_read_gb": traffic.ct_read / 1e9,
        "ct_write_gb": traffic.ct_write / 1e9,
        "key_read_gb": traffic.key_read / 1e9,
        "pt_read_gb": traffic.pt_read / 1e9,
        "ops_total": cost.ops.total,
        "traffic_total": traffic.total,
        "arithmetic_intensity": cost.arithmetic_intensity,
        "log_qp": params.log_qp,
        "log_q1": params.log_q1 if params.supports_bootstrapping() else None,
    }
    return row


# ----------------------------------------------------------------------
# fig6.bar — design × cache-size ML application grid
# ----------------------------------------------------------------------
def _fig6_bar(
    point: Mapping[str, Any], context: Mapping[str, Any], memo: Memo
) -> Any:
    from repro.apps import workload_cost
    from repro.hardware import mad_counterpart
    from repro.hardware.runtime import estimate_runtime
    from repro.perf import CacheModel, MADConfig
    from repro.report.figures import Fig6Bar, fig6_workload

    design = point["design"]
    cache_mb = point["cache_mb"]
    kind = context["workload"]
    iterations = context.get("iterations", 30)
    workload_for = fig6_workload(kind, iterations)
    mad = mad_counterpart(design, on_chip_mb=cache_mb)
    cache = CacheModel.from_mb(cache_mb)
    config = MADConfig.all()
    cost = memo.get_or_compute(
        ("fig6_cost", kind, iterations, mad.params, config, cache.size_bytes),
        lambda: workload_cost(
            workload_for(mad.params), mad.params, config, cache
        ).total,
    )
    runtime = estimate_runtime(cost, mad)
    original_seconds = context["original_seconds"][design.name]
    if obs.tracing_enabled():
        with obs.span("sweep:fig6", design=mad.name, cache_mb=cache_mb):
            obs.record_cost(cost)
    return Fig6Bar(
        label=mad.name,
        seconds=runtime.seconds,
        bound=runtime.bound,
        speedup_vs_original=original_seconds / runtime.seconds,
    )


def _fig6_row(value: Any, point: Mapping[str, Any]) -> Dict[str, Any]:
    row = asdict(value)
    row["design"] = point["design"].name
    row["cache_mb"] = point["cache_mb"]
    return row


# ----------------------------------------------------------------------
# memsim.primitive — one Fig. 2 ladder cell
# ----------------------------------------------------------------------
def _memsim_primitive(
    point: Mapping[str, Any], context: Mapping[str, Any], memo: Memo
) -> Dict[str, Any]:
    from repro.memsim.schedules import ScheduleBuilder
    from repro.memsim.validate import validate_primitive
    from repro.params import PARAM_SETS

    label, config, cache_mb = point["rung"]
    name = point["primitive"]
    params = PARAM_SETS[context["params_key"]]
    builder = memo.get_or_compute(
        ("schedule_builder", params, config),
        lambda: ScheduleBuilder(params, config),
    )
    expected: Mapping[Any, str] = context.get("expected", {})
    reason: Optional[str] = expected.get((label, cache_mb, name))
    return validate_primitive(
        builder,
        name,
        cache_mb,
        context.get("policy", "pin"),
        context.get("tolerance", 0.05),
        reason,
    )


#: Every evaluator a sweep can name, by name.
EVALUATORS: Dict[str, Evaluator] = {
    evaluator.name: evaluator
    for evaluator in (
        Evaluator(EVALUATOR_SEARCH_CANDIDATE, _search_candidate, _search_row),
        Evaluator(EVALUATOR_BOOTSTRAP_COST, _bootstrap_cost_point),
        Evaluator(EVALUATOR_FIG6_BAR, _fig6_bar, _fig6_row),
        Evaluator(EVALUATOR_MEMSIM_PRIMITIVE, _memsim_primitive),
    )
}


def get_evaluator(name: str) -> Evaluator:
    """The evaluator named ``name``; a ``KeyError`` listing the known ones
    otherwise."""
    try:
        return EVALUATORS[name]
    except KeyError:
        known = ", ".join(sorted(EVALUATORS))
        raise KeyError(f"unknown evaluator {name!r}; known: {known}") from None
