"""``python -m repro bench``: the performance-regression harness.

Re-runs the analytical workloads (bootstrap, HELR training, ResNet-20
inference, plus primitive, memsim, sweep and NTT-kernel micro-workloads;
:data:`DEFAULT_SPECS`) under tracing, records
the simulator's own wall-clock time and the analytical costs, and
compares each run against its committed baseline snapshot
(``benchmarks/baselines/*.json``, one per workload × design × cache
size) with configurable tolerances.  Analytical-cost growth beyond
tolerance is a *regression*: the run exits non-zero and the offending
spans are named by the :mod:`repro.obs.diff` attribution table.
Wall-clock time is report-only — it lands in the ``BENCH_<workload>.json``
trajectory files, never in the gate.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Callable, Dict, List, Optional, Tuple

from repro.obs import schema
from repro.obs import state as obs
from repro.obs.baseline import (
    BaselineStore,
    BenchComparison,
    Tolerance,
    baseline_key,
    compare_reports,
)
from repro.obs.diff import COST_DIFF
from repro.obs.export import RUN_REPORT, attribute_runtime, build_run_report
from repro.obs.schema import PROVENANCE, Schema

_NUMBER: Dict[str, Any] = {"type": "number"}

#: One ``BENCH_<name>.json`` file: the per-machine history of one workload.
BENCH_TRAJECTORY = Schema(
    "repro.obs.bench_trajectory/v1.1",
    {
        "title": "repro bench trajectory",
        "type": "object",
        "required": ["workload", "entries"],
        "properties": {
            "workload": {"type": "string"},
            "entries": {
                "type": "array",
                "items": {
                    "type": "object",
                    "required": [
                        "provenance",
                        "wall_seconds",
                        "ops_total",
                        "traffic_total",
                        "regressions",
                    ],
                    "properties": {
                        "provenance": PROVENANCE,
                        "wall_seconds": _NUMBER,
                        "ops_total": _NUMBER,
                        "traffic_total": _NUMBER,
                        "regressions": {"type": "array"},
                    },
                },
            },
        },
    },
)


@dataclass(frozen=True)
class BenchSpec:
    """One bench workload: what to run and which baseline gates it."""

    workload: str  # "micro" | "bootstrap" | "helr" | "resnet" | "memsim" | "sweep" | "kernels"
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
    BenchSpec("kernels", "baseline", "none"),
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
        builder.pt_mat_vec_mult(limbs, builder.dft_diagonals()),
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


def kernels_micro_cost(
    params, config, degree: int = 4096, limbs: int = 8, repeats: int = 3
):
    """Traced NTT-kernel micro-workload: the vectorized engine vs its oracle.

    One forward+inverse round trip of the whole RNS basis (``limbs``
    sub-``2**30`` moduli at ring degree ``degree``), executed on both the
    vectorized :class:`repro.kernels.ntt.BatchNttKernel` (a four-step
    transform of exact float64 matrix products) and the pure-Python
    :class:`repro.numth.ntt.NttContext` oracle with min-of-k timing.  The
    *gated* cost is the closed-form radix-2 transform model — per
    direction and limb: ``N`` twist multiplies plus ``N/2 * log2 N``
    butterfly multiplies and ``N * log2 N`` butterfly adds, moving the
    limb-major ``(L, N)`` int64 matrix once per stage pass.  It models the
    transform the paper's hardware runs, not either engine's schedule, so
    the gate pins the modeled work while the run itself asserts the
    engines agree bit-for-bit.

    Wall-clock and the vectorized/oracle speedup land in ``host.``-
    prefixed gauges: report-only, zeroed in committed baselines and
    tracked per machine in the ``BENCH_kernels.json`` trajectory.

    ``params`` and ``config`` are part of the signature so the spec's
    baseline key stays self-describing; the workload is parameterised by
    ``(degree, limbs)`` instead.
    """
    import random

    from repro.kernels import uniform_rows
    from repro.kernels.ntt import BatchNttKernel
    from repro.numth import NttContext, find_ntt_primes
    from repro.perf.events import CostReport, MemTraffic, OpCount

    del params, config
    primes = find_ntt_primes(30, degree, limbs)
    contexts = [NttContext(degree, q) for q in primes]
    kernel = BatchNttKernel(degree, primes)
    rows = uniform_rows(random.Random(2012), primes, degree, advance=False).tolist()

    log_n = degree.bit_length() - 1
    limb_bytes = limbs * degree * 8
    per_direction = CostReport(
        ops=OpCount(
            mults=limbs * (degree + (degree // 2) * log_n),
            adds=limbs * degree * log_n,
        ),
        # One read+write pass over the limb-major matrix per stage level,
        # plus the psi twist (forward) / untwist (inverse) pass.
        traffic=MemTraffic(
            ct_read=limb_bytes * (log_n + 1),
            ct_write=limb_bytes * (log_n + 1),
        ),
    )
    round_trip = per_direction + per_direction

    def best_of(run: Callable[[], Any]) -> float:
        best = float("inf")
        for _ in range(repeats):
            started = time.perf_counter()
            run()
            best = min(best, time.perf_counter() - started)
        return best

    total = CostReport()
    with obs.span(
        "KernelsMicro", degree=degree, limbs=limbs, repeats=repeats
    ):
        with obs.span("ntt:oracle", engine="oracle"):
            oracle_seconds = best_of(
                lambda: [
                    ctx.inverse(ctx.forward(row))
                    for ctx, row in zip(contexts, rows)
                ]
            )
            obs.record_cost(round_trip)
        total = total + round_trip
        with obs.span("ntt:vectorized", engine="vectorized"):
            vectorized_seconds = best_of(
                lambda: kernel.inverse(kernel.forward(rows))
            )
            obs.record_cost(round_trip)
        total = total + round_trip

        # Differential gate: the bench refuses to report a speedup for an
        # engine that diverged from the oracle.
        fwd = kernel.forward(rows)
        if fwd.tolist() != [
            ctx.forward(row) for ctx, row in zip(contexts, rows)
        ] or kernel.inverse(fwd).tolist() != rows:
            raise RuntimeError(
                "vectorized NTT diverged from the pure-Python oracle at "
                f"degree={degree}, limbs={limbs}"
            )
        obs.annotate(parity="bit-exact")
        obs.gauge("host.kernels.oracle_seconds", oracle_seconds)
        obs.gauge("host.kernels.vectorized_seconds", vectorized_seconds)
        obs.gauge(
            "host.kernels.speedup", oracle_seconds / vectorized_seconds
        )
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
    if target == "kernels":
        return "kernels", lambda: kernels_micro_cost(ckks, mad)
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


def _append_trajectory(
    out_dir: Path, spec: BenchSpec, report: Dict[str, Any],
    comparison: Optional[BenchComparison], runner_seconds: float,
) -> Path:
    """Append one entry to the workload's BENCH_<name>.json trajectory."""
    path = out_dir / f"BENCH_{spec.name}.json"
    try:
        trajectory = schema.load(path, BENCH_TRAJECTORY)
    except (OSError, ValueError):
        trajectory = None  # corrupt or outdated trajectory: start a fresh one
    if trajectory is None:
        trajectory = {
            "schema": BENCH_TRAJECTORY.id,
            "workload": spec.name,
            "entries": [],
        }
    # Host-measurement gauges (wall-clock, engine speedups) are the whole
    # point of a trajectory: they are zeroed in the committed *baseline*
    # but tracked per machine here.
    host_gauges = {
        name: value
        for name, value in report["metrics"].get("gauges", {}).items()
        if name.startswith("host.")
    }
    trajectory["entries"].append(
        {
            "timestamp": time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime()),
            "provenance": schema.provenance(),
            "host_gauges": host_gauges,
            "wall_seconds": runner_seconds,
            "trace_wall_seconds": report["wall_seconds"],
            "ops_total": report["totals"]["ops"]["total"],
            "traffic_total": report["totals"]["traffic"]["total"],
            "arithmetic_intensity": report["totals"]["arithmetic_intensity"],
            "ok": comparison.ok if comparison is not None else None,
            "regressions": (
                [r.metric for r in comparison.regressions]
                if comparison is not None
                else []
            ),
        }
    )
    schema.write(trajectory, BENCH_TRAJECTORY, path)
    return path


def run_bench(
    specs: Tuple[BenchSpec, ...] = DEFAULT_SPECS,
    store: Optional[BaselineStore] = None,
    *,
    update: bool = False,
    tolerance: Tolerance = Tolerance(),
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

        comparison: Optional[BenchComparison] = None
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
                comparison = compare_reports(baseline, report, tolerance)
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

        if out_path is not None:
            _append_trajectory(out_path, spec, report, comparison, runner_seconds)

    if failures:
        printer(
            f"\nbench FAILED: {len(failures)}/{len(specs)} workloads "
            f"regressed or lack baselines: {', '.join(failures)}"
        )
        return 1
    printer(f"\nbench ok: {len(specs)} workloads within tolerance")
    return 0
