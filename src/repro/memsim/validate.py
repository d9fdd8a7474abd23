"""Differential validation: simulated DRAM traffic vs the analytical model.

For one ``(CkksParams, MADConfig, cache size)`` triple, every primitive's
schedule is replayed through :class:`~repro.memsim.simulator
.MemorySimulator` and the per-stream DRAM bytes are compared against the
analytical totals of :class:`~repro.perf.primitives.PrimitiveCosts` — the
same inputs the paper's Fig. 2 ladder is computed from.  The analytical
side is evaluated with ``cache=None`` (no auto-disabling of unsupported
optimizations), so the comparison asks the sharp question: *does this
optimization's claimed traffic actually materialize at this capacity?*

Outcomes per primitive:

* **exact / within tolerance** — the analytical formula is reproduced by
  an actual replacement policy at this capacity.
* **``fit_broken``** (simulated > analytical) — the optimization's
  working set does not fit; the analytical fit threshold is broken.
  Divergences the model predicts (see :data:`EXPECTED_FIT_BREAKS`) must
  *actually* diverge — a stale expectation fails the gate too, so known
  breaks are asserted and documented, never silently tolerated.

The report is declared as :data:`MEMSIM_REPORT` on the
:mod:`repro.obs.schema` table and carries the run's ``provenance``
block.

Cache sizes follow :class:`repro.perf.cache.CacheModel`: **decimal**
megabytes (``MB = 10**6``) floor-divided by ``params.limb_bytes`` — see
the byte-convention note in ``perf/cache.py``.
"""

from __future__ import annotations

from typing import Any, Dict, List, Optional, Sequence, Tuple

from repro.memsim.schedules import ScheduleBuilder
from repro.memsim.simulator import MemorySimulator, SimResult
from repro.memsim.policies import POLICIES, make_policy
from repro.obs import schema
from repro.obs import state as obs
from repro.obs.schema import COUNT, NON_NEGATIVE, PROVENANCE, Schema, fields
from repro.params import PARAM_SETS
from repro.perf.bootstrap import dft_diagonals
from repro.perf.cache import mb_to_bytes
from repro.perf.events import MemTraffic
from repro.perf.optimizations import CACHING_LADDER, MADConfig
from repro.sweep.spec import SweepAxis, SweepSpec

#: Streams compared, matching :class:`repro.perf.events.MemTraffic`.
STREAM_FIELDS = ("ct_read", "ct_write", "key_read", "pt_read")

#: Default per-stream relative-error gate.
DEFAULT_TOLERANCE = 0.05

#: Primitives validated per ladder rung (top-level limb count).
LADDER_PRIMITIVES = (
    "decomp",
    "mod_up",
    "ksk_inner_product",
    "mod_down",
    "key_switch",
    "mult",
    "rotate",
    "pt_mat_vec_mult",
    "bootstrap",
)

#: The Fig. 2 replication matrix: (rung label, cache size in decimal MB).
#: Each rung runs at the capacity the paper's ladder names for it; the
#: final rung additionally runs at a capacity where the O(beta) x
#: limb-reorder composition genuinely fits (see EXPECTED_FIT_BREAKS).
LADDER_RUNS: Tuple[Tuple[str, float], ...] = (
    ("Baseline", 2.0),
    ("1-limb Cache", 2.0),
    ("beta-limb Cache", 8.0),
    ("alpha-limb Cache", 32.0),
    ("Limb Re-order", 32.0),
    ("Limb Re-order", 192.0),
)

#: Documented analytical fit-threshold breaks for BASELINE_JUNG.
#:
#: The O(beta) x limb-reorder composition inside PtMatVecMult keeps every
#: baby rotation's special-limb accumulators on chip simultaneously:
#: ``2 * num_special_limbs * (baby - 1)`` limbs (= 2*12*7 = 168 limbs,
#: ~176 MB at 1 MiB/limb) — while the paper's ladder evaluates the rung
#: at 32 MB (30 limbs).  The per-rotation claims (output writes elided,
#: ModDown input resident) therefore cannot hold simultaneously with the
#: one-time digit read at 32 MB: simulated ct_read exceeds analytical by
#: >150% with thousands of pin failures.  Bootstrap inherits the break
#: through its CoeffToSlot/SlotToCoeff units.  At 192 MB the composition
#: fits and both are bit-exact again.
EXPECTED_FIT_BREAKS: Dict[Tuple[str, float, str], str] = {
    (
        "Limb Re-order",
        32.0,
        "pt_mat_vec_mult",
    ): (
        "O(beta) x limb-reorder needs 2*k*(baby-1) = 168 resident limbs "
        "(~176 MB); 32 MB holds 30"
    ),
    (
        "Limb Re-order",
        32.0,
        "bootstrap",
    ): (
        "inherited from pt_mat_vec_mult: CoeffToSlot/SlotToCoeff units "
        "exceed 32 MB under the O(beta) x limb-reorder composition"
    ),
}

_STRING: Dict[str, Any] = {"type": "string"}
_BOOLEAN: Dict[str, Any] = {"type": "boolean"}
_NUMBER: Dict[str, Any] = {"type": "number"}

MEMSIM_REPORT = Schema(
    "repro.memsim/v1.1",
    {
        "title": "repro.memsim differential validation report",
        "type": "object",
        "required": [
            "provenance",
            "params",
            "policy",
            "tolerance",
            "block_bytes",
            "runs",
            "passed",
        ],
        "properties": {
            "provenance": PROVENANCE,
            "params": _STRING,
            "policy": {"enum": sorted(POLICIES)},
            "tolerance": NON_NEGATIVE,
            "block_bytes": {"type": "integer", "minimum": 1},
            "passed": _BOOLEAN,
            "runs": {
                "type": "array",
                "items": {
                    "type": "object",
                    "required": [
                        "label",
                        "cache_mb",
                        "capacity_limbs",
                        "primitives",
                        "passed",
                    ],
                    "properties": {
                        "label": _STRING,
                        "cache_mb": NON_NEGATIVE,
                        "capacity_limbs": COUNT,
                        "passed": _BOOLEAN,
                        "primitives": {
                            "type": "array",
                            "items": {
                                "type": "object",
                                "required": [
                                    "primitive",
                                    "streams",
                                    "max_abs_rel_error",
                                    "pin_failures",
                                    "fit_broken",
                                    "expected_fit_break",
                                    "passed",
                                ],
                                "properties": {
                                    "primitive": _STRING,
                                    "max_abs_rel_error": _NUMBER,
                                    "pin_failures": COUNT,
                                    "fit_broken": _BOOLEAN,
                                    "expected_fit_break": _BOOLEAN,
                                    "reason": {"type": ["string", "null"]},
                                    "passed": _BOOLEAN,
                                    "streams": fields(
                                        {
                                            "type": "object",
                                            "required": [
                                                "analytical",
                                                "simulated",
                                                "rel_error",
                                            ],
                                            "properties": {
                                                "analytical": COUNT,
                                                "simulated": COUNT,
                                                "rel_error": _NUMBER,
                                            },
                                        },
                                        *STREAM_FIELDS,
                                    ),
                                },
                            },
                        },
                    },
                },
            },
        },
    },
)


# ----------------------------------------------------------------------
# Core comparison
# ----------------------------------------------------------------------
def compare_traffic(
    analytical: MemTraffic, result: SimResult, tolerance: float
) -> Dict[str, Any]:
    """Per-stream comparison of one replay against its analytical claim."""
    streams: Dict[str, Dict[str, Any]] = {}
    max_abs = 0.0
    fit_broken = False
    for field in STREAM_FIELDS:
        a = getattr(analytical, field)
        s = getattr(result.traffic, field)
        if a:
            rel = (s - a) / a
        else:
            rel = 0.0 if s == 0 else float("inf")
        max_abs = max(max_abs, abs(rel))
        if rel > tolerance:
            # Simulated exceeds analytical: the fit threshold the formula
            # assumed does not hold at this capacity.
            fit_broken = True
        streams[field] = {
            "analytical": a,
            "simulated": s,
            "rel_error": rel if rel != float("inf") else -1.0,
        }
    return {
        "streams": streams,
        "max_abs_rel_error": max_abs if max_abs != float("inf") else -1.0,
        "pin_failures": result.pin_failures,
        "fit_broken": fit_broken,
        "within_tolerance": max_abs <= tolerance,
    }


def _primitive_traffic(
    builder: ScheduleBuilder,
    name: str,
    capacity_bytes: int,
    policy_name: str,
) -> Tuple[MemTraffic, MemTraffic, int]:
    """(analytical, simulated, pin_failures) for one primitive."""
    params = builder.params
    limbs = params.max_limbs
    if name == "bootstrap":
        analytical = MemTraffic()
        simulated = MemTraffic()
        pin_failures = 0
        for unit in builder.bootstrap_units():
            result = MemorySimulator(
                capacity_bytes, make_policy(policy_name)
            ).replay(unit.trace)
            analytical = analytical + unit.analytical.traffic.scaled(
                unit.scale
            )
            simulated = simulated + result.traffic.scaled(unit.scale)
            pin_failures += result.pin_failures * unit.scale
        return analytical, simulated, pin_failures
    if name == "pt_mat_vec_mult":
        schedule = builder.pt_mat_vec_mult(limbs, dft_diagonals(params))
    elif name == "mod_raise":
        schedule = builder.mod_raise(2, limbs)
    else:
        schedule = getattr(builder, name)(limbs)
    result = MemorySimulator(
        capacity_bytes, make_policy(policy_name)
    ).replay(schedule.trace)
    return schedule.analytical.traffic, result.traffic, result.pin_failures


def validate_primitive(
    builder: ScheduleBuilder,
    name: str,
    cache_mb: float,
    policy_name: str = "pin",
    tolerance: float = DEFAULT_TOLERANCE,
    expected_break_reason: Optional[str] = None,
) -> Dict[str, Any]:
    """Validate one primitive at one capacity; returns a report entry.

    An entry passes when it is within tolerance and no break was
    expected, or when an expected break actually materialized (stale
    expectations fail — a fixed fit threshold must be promoted back to a
    plain pass).
    """
    capacity_bytes = mb_to_bytes(cache_mb)
    analytical, simulated, pin_failures = _primitive_traffic(
        builder, name, capacity_bytes, policy_name
    )
    result = SimResult(
        traffic=simulated,
        stats=_stats_for(pin_failures),
        capacity_blocks=capacity_bytes // builder.params.limb_bytes,
        block_bytes=builder.params.limb_bytes,
        policy=policy_name,
    )
    comparison = compare_traffic(analytical, result, tolerance)
    expected = expected_break_reason is not None
    if expected:
        passed = comparison["fit_broken"]
    else:
        passed = comparison["within_tolerance"]
    entry = {
        "primitive": name,
        "streams": comparison["streams"],
        "max_abs_rel_error": comparison["max_abs_rel_error"],
        "pin_failures": pin_failures,
        "fit_broken": comparison["fit_broken"],
        "expected_fit_break": expected,
        "reason": expected_break_reason,
        "passed": passed,
    }
    obs.count("memsim.validate.primitives")
    if not passed:
        obs.count("memsim.validate.failures")
    return entry


def _stats_for(pin_failures: int):
    from repro.memsim.accounting import SimStats

    return SimStats(pin_failures=pin_failures)


# ----------------------------------------------------------------------
# Report assembly
# ----------------------------------------------------------------------
def ladder_sweep_spec(
    params_key: str = "baseline",
    policy_name: str = "pin",
    tolerance: float = DEFAULT_TOLERANCE,
    runs: Optional[Sequence[Tuple[str, MADConfig, float]]] = None,
    primitives: Optional[Sequence[str]] = None,
) -> SweepSpec:
    """The Fig. 2 ladder as a declarative sweep: rung × primitive.

    The ``rung`` axis carries ``(label, config, cache_mb)`` triples (the
    ladder pairs each config with its paper capacity, so the pairs are a
    single axis, not a cross product); the ``primitive`` axis lists the
    validated primitives in canonical order.
    """
    params = PARAM_SETS[params_key]
    selected = tuple(primitives) if primitives else LADDER_PRIMITIVES
    selected = tuple(
        name
        for name in selected
        if name != "bootstrap" or params.supports_bootstrapping()
    )
    if runs is None:
        by_label = dict(CACHING_LADDER)
        runs = [
            (label, by_label[label], cache_mb)
            for label, cache_mb in LADDER_RUNS
        ]
    expected = EXPECTED_FIT_BREAKS if params_key == "baseline" else {}
    rungs = tuple(
        (label, config, float(cache_mb)) for label, config, cache_mb in runs
    )
    return SweepSpec(
        name="memsim-ladder",
        evaluator="memsim.primitive",
        axes=(SweepAxis("rung", rungs), SweepAxis("primitive", selected)),
        context={
            "params_key": params_key,
            "policy": policy_name,
            "tolerance": tolerance,
            "expected": dict(expected),
        },
    )


def run_validation(
    params_key: str = "baseline",
    policy_name: str = "pin",
    tolerance: float = DEFAULT_TOLERANCE,
    runs: Optional[Sequence[Tuple[str, MADConfig, float]]] = None,
    primitives: Optional[Sequence[str]] = None,
) -> Dict[str, Any]:
    """Run the differential validation matrix and assemble the report.

    Without ``runs``, the Fig. 2 caching ladder is validated at the
    paper's cache sizes (:data:`LADDER_RUNS`); known fit-threshold breaks
    from :data:`EXPECTED_FIT_BREAKS` are asserted (baseline params only —
    other parameter sets report divergences as plain failures).  The
    rung × primitive matrix runs through :mod:`repro.sweep`, one cell per
    sweep point.
    """
    from repro.sweep.engine import run_sweep

    params = PARAM_SETS[params_key]
    spec = ladder_sweep_spec(params_key, policy_name, tolerance, runs, primitives)
    rungs = spec.axes[0].values
    selected = spec.axes[1].values
    with obs.span("memsim:validate", params=params_key, policy=policy_name):
        outcome = run_sweep(spec)

    report_runs: List[Dict[str, Any]] = []
    per_rung = len(selected)
    for position, (label, config, cache_mb) in enumerate(rungs):
        entries = outcome.values[position * per_rung : (position + 1) * per_rung]
        report_runs.append(
            {
                "label": label,
                "config": _config_dict(config),
                "cache_mb": cache_mb,
                "capacity_limbs": mb_to_bytes(cache_mb) // params.limb_bytes,
                "primitives": entries,
                "passed": all(e["passed"] for e in entries),
            }
        )
    report: Dict[str, Any] = {
        "schema": MEMSIM_REPORT.id,
        "provenance": schema.provenance(config_fingerprint=spec.fingerprint()),
        "params": params_key,
        "policy": policy_name,
        "tolerance": tolerance,
        "block_bytes": params.limb_bytes,
        "runs": report_runs,
        "passed": all(r["passed"] for r in report_runs),
    }
    schema.validate(report, MEMSIM_REPORT)
    return report


def _config_dict(config: MADConfig) -> Dict[str, bool]:
    from dataclasses import asdict

    return {k: bool(v) for k, v in asdict(config).items()}


def render_report(report: Dict[str, Any]) -> str:
    """Human-readable rendering of a memsim report."""
    lines = [
        f"memsim differential validation — params={report['params']} "
        f"policy={report['policy']} tol={report['tolerance']:.0%}",
        "",
    ]
    header = (
        f"{'Rung':18} {'Cache':>8} {'Primitive':18} {'max |rel|':>10} "
        f"{'pins!':>6}  status"
    )
    lines.append(header)
    lines.append("-" * len(header))
    for run in report["runs"]:
        for entry in run["primitives"]:
            if entry["passed"] and not entry["fit_broken"]:
                status = "ok"
            elif entry["passed"]:
                status = "fit break (expected)"
            elif entry["fit_broken"]:
                status = "FIT BREAK"
            else:
                status = "FAIL"
            lines.append(
                f"{run['label']:18} {run['cache_mb']:6.0f}MB "
                f"{entry['primitive']:18} "
                f"{entry['max_abs_rel_error']:10.4f} "
                f"{entry['pin_failures']:6d}  {status}"
            )
    lines.append("-" * len(header))
    lines.append(f"overall: {'PASS' if report['passed'] else 'FAIL'}")
    return "\n".join(lines)
