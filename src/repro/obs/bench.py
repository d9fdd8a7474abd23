"""``python -m repro bench``: the performance-regression harness.

Re-runs the analytical workloads (bootstrap, HELR training, ResNet-20
inference, plus primitive, memsim and sweep micro-workloads;
:data:`DEFAULT_SPECS`) under tracing, records the analytical costs, and
compares each run exactly against its committed baseline snapshot
(``benchmarks/baselines/*.json``, one per workload × design × cache
size).  Any analytical-cost growth is a *regression*: the run exits
non-zero and the offending spans are named by the :mod:`repro.obs.diff`
attribution table.  The harness's own wall-clock time is printed, never
gated; wall-clock of the functional stack belongs to ``bench/run.py``.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Callable, Dict, List, Optional, Tuple

from repro.obs import schema
from repro.obs import state as obs
from repro.obs.baseline import BaselineStore, baseline_key, compare_reports
from repro.obs.diff import COST_DIFF
from repro.obs.export import RUN_REPORT, attribute_runtime, build_run_report


@dataclass(frozen=True)
class BenchSpec:
    """One bench workload: what to run and which baseline gates it."""

    workload: str  # "micro" | "bootstrap" | "helr" | "resnet" | "memsim" | "sweep"
    params: str  # key into repro.params.PARAM_SETS
    config: str  # key into repro.perf.CONFIGS
    cache_mb: Optional[float] = None
    design: Optional[str] = None  # roofline attribution (report-only)

    @property
    def name(self) -> str:
        return baseline_key(
            self.workload, self.params, self.config, self.cache_mb, self.design
        )


#: The committed bench matrix — every entry has a baseline fixture.
DEFAULT_SPECS: Tuple[BenchSpec, ...] = (
    BenchSpec("micro", "baseline", "none"),
    BenchSpec("micro", "optimal", "all"),
    BenchSpec("bootstrap", "baseline", "none"),
    BenchSpec("bootstrap", "optimal", "caching", cache_mb=256.0),
    BenchSpec("bootstrap", "optimal", "all"),
    BenchSpec("bootstrap", "optimal", "all", cache_mb=256.0, design="BTS"),
    BenchSpec("helr", "optimal", "all", cache_mb=256.0, design="BTS"),
    BenchSpec("resnet", "optimal", "all", cache_mb=256.0, design="BTS"),
    BenchSpec("memsim", "baseline", "caching", cache_mb=32.0),
    BenchSpec("sweep", "baseline", "all"),
)


def primitive_micro_cost(params, config, cache=None):
    """Traced per-primitive micro-workload at a representative level.

    One span per homomorphic primitive, each recording exactly its unit
    cost — the finest-grained regression probe: a cost change in any
    single primitive is attributed directly instead of smeared across a
    bootstrap phase.
    """
    from repro.perf import PrimitiveCosts
    from repro.perf.events import CostReport

    costs = PrimitiveCosts(params, config, cache)
    level = max(2, round(params.max_limbs * 0.6))
    units: Tuple[Tuple[str, Callable], ...] = (
        ("Add", costs.add),
        ("PtAdd", costs.pt_add),
        ("PtMult", costs.pt_mult),
        ("Mult", costs.mult),
        ("Rotate", costs.rotate),
        ("Conjugate", costs.conjugate),
        ("KeySwitch", costs.key_switch),
        ("Rescale", costs.rescale),
        ("Automorph", costs.automorph),
    )
    total = CostReport()
    with obs.span("Primitives", level=level, params=params.describe()):
        for name, unit in units:
            with obs.span(name, level=level):
                cost = unit(level)
                obs.record_cost(cost)
            total = total + cost
        with obs.span("ModRaise", level=level):
            cost = costs.mod_raise(2, params.max_limbs)
            obs.record_cost(cost)
        total = total + cost
    return total


def memsim_micro_cost(params, config, cache_mb: float = 32.0):
    """Traced memsim micro-workload: replay each primitive's schedule.

    The recorded cost of each span is the *simulated* DRAM traffic of the
    primitive's trace at ``cache_mb`` under LRU — so any drift in the
    schedule generators, the replay semantics, or a replacement policy
    shows up as a gated traffic change, attributed to the primitive that
    moved.
    """
    from repro.memsim.policies import make_policy
    from repro.memsim.schedules import ScheduleBuilder
    from repro.memsim.simulator import MemorySimulator
    from repro.perf.bootstrap import dft_diagonals
    from repro.perf.cache import MB
    from repro.perf.events import CostReport

    builder = ScheduleBuilder(params, config)
    limbs = params.max_limbs
    schedules = (
        builder.decomp(limbs),
        builder.mod_up(limbs),
        builder.ksk_inner_product(limbs),
        builder.mod_down(limbs),
        builder.key_switch(limbs),
        builder.mult(limbs),
        builder.rotate(limbs),
        builder.pt_mat_vec_mult(limbs, dft_diagonals(params)),
    )
    total = CostReport()
    with obs.span("MemsimMicro", cache_mb=cache_mb, params=params.describe()):
        for schedule in schedules:
            with obs.span("memsim:bench", primitive=schedule.label):
                result = MemorySimulator(
                    int(cache_mb * MB), make_policy("lru")
                ).replay(schedule.trace)
                cost = CostReport(traffic=result.traffic)
                obs.record_cost(cost)
            total = total + cost
    return total


def sweep_micro_cost(params, config):
    """Traced sweep micro-workload: a small Table 5 grid through the engine.

    Runs a fixed 24-candidate search grid through
    :func:`repro.sweep.run_sweep` in-process and sums the candidates'
    bootstrap costs, so the bench gate covers the sweep engine and its
    memo: any cost drift in the engine (a dropped or double-evaluated
    point, a memo key collision) changes the gated total.  Wall-clock stays report-only, as everywhere in the bench.

    ``params`` names the design's own parameter set and is unused — the
    grid supplies the candidates; it is part of the signature so the
    spec's baseline key stays self-describing.
    """
    from repro.hardware import PRIOR_DESIGNS, mad_counterpart
    from repro.perf.events import CostReport
    from repro.search.space import enumerate_parameter_space
    from repro.sweep import SweepAxis, SweepSpec, run_sweep

    del params
    candidates = tuple(
        enumerate_parameter_space(
            log_q_choices=(50, 54, 58),
            max_limbs_choices=(35, 40),
            dnum_choices=(2, 3),
            fft_iter_choices=(3, 4),
        )
    )
    spec = SweepSpec(
        name="sweep-micro",
        evaluator="search.candidate",
        axes=(SweepAxis("params", candidates),),
        context={
            "design": mad_counterpart(PRIOR_DESIGNS["GPU [Jung et al.]"]),
            "config": config,
            "enforce_cache": False,
        },
    )
    outcome = run_sweep(spec)
    total = CostReport()
    for result in outcome.values:
        total = total + result.cost
    return total


def resolve_model(params: str, config: str, cache_mb: Optional[float]):
    """The ``(CkksParams, MADConfig, CacheModel)`` three names select.

    ``cache_mb=None`` leaves the on-chip memory unbounded (no cache
    model); any other value is a capacity in decimal MB.
    """
    from repro.params import PARAM_SETS
    from repro.perf import CONFIGS, CacheModel

    cache = None if cache_mb is None else CacheModel.from_mb(cache_mb)
    return PARAM_SETS[params], CONFIGS[config], cache


def resolve_workload(
    target: str, params: str, config: str, cache_mb: Optional[float] = None
) -> Tuple[str, Callable[[], Any]]:
    """``(display name, zero-arg cost thunk)`` for a named workload.

    The one place ``repro trace``, ``repro profile`` and the bench matrix
    turn a target and parameter-set / config / cache names into a run;
    the thunk returns the workload's total cost.
    """
    from repro.perf import BootstrapModel

    ckks, mad, cache = resolve_model(params, config, cache_mb)
    if target == "bootstrap":
        return "bootstrap", lambda: BootstrapModel(ckks, mad, cache).ledger().total
    if target in ("helr", "resnet"):
        from repro.apps import helr_training, resnet20_inference, workload_cost

        factory = helr_training if target == "helr" else resnet20_inference
        workload = factory(ckks)
        return workload.name, lambda: workload_cost(workload, ckks, mad, cache).total
    if target == "micro":
        return "micro", lambda: primitive_micro_cost(ckks, mad, cache)
    if target == "memsim":
        capacity = 32.0 if cache_mb is None else cache_mb
        return "memsim", lambda: memsim_micro_cost(ckks, mad, capacity)
    if target == "sweep":
        return "sweep", lambda: sweep_micro_cost(ckks, mad)
    raise ValueError(f"unknown workload {target!r}")


def run_spec(spec: BenchSpec) -> Dict[str, Any]:
    """Run one bench workload traced and return its run report."""
    from dataclasses import asdict

    from repro.obs.profiler import process_cpu_seconds, run_resource_summary
    from repro.perf import CONFIGS

    workload_name, runner = resolve_workload(
        spec.workload, spec.params, spec.config, spec.cache_mb
    )
    cpu0 = process_cpu_seconds()
    wall0 = time.perf_counter()
    with obs.capture() as (tracer, registry):
        runner()
    resources = run_resource_summary(
        wall_seconds=time.perf_counter() - wall0,
        cpu_seconds=process_cpu_seconds() - cpu0,
    )

    runtime = None
    if spec.design:
        from repro.hardware import PRIOR_DESIGNS

        runtime = attribute_runtime(tracer, PRIOR_DESIGNS[spec.design])

    report = build_run_report(
        tracer,
        registry,
        command=f"bench {spec.name}",
        workload=workload_name,
        params=spec.params,
        config=asdict(CONFIGS[spec.config]),
        runtime=runtime,
        resources=resources,
    )
    schema.validate(report, RUN_REPORT)
    return report


def run_bench(
    specs: Tuple[BenchSpec, ...] = DEFAULT_SPECS,
    store: Optional[BaselineStore] = None,
    *,
    update: bool = False,
    out_dir: Optional[str] = None,
    printer: Callable[[str], None] = print,
) -> int:
    """Run the bench matrix; returns a process exit code.

    ``update=True`` (re)writes every baseline instead of gating.  A
    missing baseline is itself a failure in gating mode — the matrix is
    meant to be fully committed.
    """
    store = store if store is not None else BaselineStore()
    out_path = Path(out_dir) if out_dir else None
    if out_path is not None:
        out_path.mkdir(parents=True, exist_ok=True)

    failures: List[str] = []
    for spec in specs:
        started = time.perf_counter()
        report = run_spec(spec)
        runner_seconds = time.perf_counter() - started

        if update:
            path = store.save(spec.name, report)
            printer(
                f"{spec.name}: baseline updated ({path}) — "
                f"{report['totals']['ops']['total']:,} ops, "
                f"{report['totals']['traffic']['total']:,} bytes, "
                f"{runner_seconds * 1e3:.1f} ms"
            )
        else:
            baseline = store.load(spec.name)
            if baseline is None:
                failures.append(spec.name)
                printer(
                    f"{spec.name}: MISSING baseline "
                    f"({store.path_for(spec.name)}) — run "
                    f"`python -m repro bench --update` and commit it"
                )
            else:
                comparison = compare_reports(baseline, report)
                comparison.workload = spec.name
                if comparison.ok:
                    headline, *drift = comparison.describe().split("\n")
                    printer(
                        "\n".join(
                            [f"{headline}  [{runner_seconds * 1e3:.1f} ms]", *drift]
                        )
                    )
                else:
                    printer(comparison.describe())
                    failures.append(spec.name)
                if out_path is not None and comparison.diff is not None:
                    schema.write(
                        comparison.diff,
                        COST_DIFF,
                        out_path / f"cost_diff_{spec.name}.json",
                    )

    if failures:
        printer(
            f"\nbench FAILED: {len(failures)}/{len(specs)} workloads "
            f"regressed or lack baselines: {', '.join(failures)}"
        )
        return 1
    printer(f"\nbench ok: {len(specs)} workloads within their baselines")
    return 0
