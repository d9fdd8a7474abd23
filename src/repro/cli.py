"""Command-line interface: ``python -m repro <command>``.

Commands regenerate the paper's tables/figures or run ad-hoc analyses:

    python -m repro table4
    python -m repro table6
    python -m repro fig2
    python -m repro bootstrap --params optimal --config all
    python -m repro search --multipliers 4096 --bandwidth 1000 --cache-mb 32
    python -m repro trace bootstrap --out trace.json --report run_report.json
    python -m repro diff base_report.json run_report.json --json cost_diff.json
    python -m repro bench --check
    python -m repro lint --json src/repro
    python -m repro sweep table5 --jobs 4 --out sweep_report.json
    python -m repro sweep table5 --jobs 4 --events events.jsonl --report run_report.json
    python -m repro serve mixed --seed 0 --out serve_report.json
    python -m repro profile bootstrap --params optimal --config all
    python -m repro top events.jsonl
    python -m repro dash events.jsonl --out dash.html

Table commands accept ``--json`` for machine-readable output; ``trace``
records a hierarchical span tree and writes it as Chrome trace-event JSON
(viewable in Perfetto or ``chrome://tracing``); ``diff`` attributes the
cost delta between two run reports span by span; ``bench`` gates the
analytical workloads against the committed baselines in
``benchmarks/baselines/``; ``lint`` mechanically enforces the cost-model
and observability invariants (see :mod:`repro.lint`); ``sweep`` runs a
declarative parameter sweep (see :mod:`repro.sweep`) over worker
processes with a resumable machine-readable report, optionally streaming
a ``repro.obs.events/v1`` JSONL event log and a merged cross-process
``run_report.json``; ``serve`` runs a seed-deterministic multi-tenant
serving simulation (see :mod:`repro.serve`) and writes a
``repro.serve/v1`` report with per-tenant latency percentiles, SLA
verdicts, batching efficiency and cost-per-request; ``profile``
attributes host resources (RSS,
allocation peaks, CPU, GC) span by span; ``top`` renders live progress
from an event stream; ``dash`` turns an event stream into a
self-contained HTML dashboard.
"""

from __future__ import annotations

import argparse
import json
import sys
from dataclasses import asdict
from typing import List, Optional

from repro.params import BASELINE_JUNG, MAD_OPTIMAL
from repro.perf import BootstrapModel, CacheModel, MADConfig

_PARAM_SETS = {"baseline": BASELINE_JUNG, "optimal": MAD_OPTIMAL}
_CONFIGS = {
    "none": MADConfig.none,
    "caching": MADConfig.caching_only,
    "all": MADConfig.all,
}


def _print_json(payload) -> None:
    print(json.dumps(payload, indent=1, sort_keys=True))


def _cmd_table4(args) -> int:
    from repro.report import generate_table4, render_table4

    config = _CONFIGS[args.config]()
    rows = generate_table4(_PARAM_SETS[args.params], config)
    if args.json:
        _print_json([asdict(row) for row in rows])
    else:
        print(render_table4(rows))
    return 0


def _cmd_table5(args) -> int:
    from repro.report import generate_table5, render_table5
    from repro.search import enumerate_parameter_space

    candidates = None
    if args.quick:
        candidates = list(
            enumerate_parameter_space(
                log_q_choices=(50, 54, 58),
                max_limbs_choices=(35, 40),
                dnum_choices=(2, 3),
                fft_iter_choices=(3, 4, 6),
            )
        )
    print(render_table5(generate_table5(candidates=candidates, jobs=args.jobs)))
    return 0


def _cmd_table6(args) -> int:
    from repro.report import generate_table6, render_table6

    rows = generate_table6()
    if args.json:
        _print_json([asdict(row) for row in rows])
    else:
        print(render_table6(rows))
    return 0


def _cmd_fig1(args) -> int:
    from repro.report import generate_fig1

    data = generate_fig1()
    print(
        f"Rotate, {data['limbs']} limbs:\n"
        f"  naive: {data['naive_reads']:.0f} reads / "
        f"{data['naive_writes']:.0f} writes\n"
        f"  O(1) : {data['cached_reads']:.0f} reads / "
        f"{data['cached_writes']:.0f} writes\n"
        f"  saved: {data['saved_mb']:.0f} MB"
    )
    return 0


def _cmd_fig2(args) -> int:
    from repro.report import generate_fig2

    points = generate_fig2()
    if args.json:
        _print_json([asdict(p) for p in points])
        return 0
    for p in points:
        print(
            f"{p.label:18} {p.dram_gb:7.1f} GB "
            f"({p.reduction_vs_baseline:6.1%} vs baseline)"
        )
    return 0


def _cmd_fig3(args) -> int:
    from repro.report import generate_fig3

    points = generate_fig3(_PARAM_SETS[args.params])
    if args.json:
        _print_json([asdict(p) for p in points])
        return 0
    for p in points:
        print(
            f"{p.label:20} {p.giga_ops:7.1f} Gops, ct {p.ct_dram_gb:6.1f} GB, "
            f"keys {p.key_read_gb:5.1f} GB, AI {p.arithmetic_intensity:.2f}"
        )
    return 0


def _cmd_fig6(args) -> int:
    from repro.hardware import PRIOR_DESIGNS
    from repro.report import generate_fig6_lr, generate_fig6_resnet

    design = PRIOR_DESIGNS[args.design]
    sizes = [float(s) for s in args.caches.split(",")]
    if args.workload == "lr":
        bars = generate_fig6_lr(design, sizes, jobs=args.jobs)
    else:
        bars = generate_fig6_resnet(design, sizes, jobs=args.jobs)
    for bar in bars:
        print(
            f"{bar.label:30} {bar.seconds:9.3f} s ({bar.bound}-bound) "
            f"{bar.speedup_vs_original:6.2f}x"
        )
    return 0


def _cmd_bootstrap(args) -> int:
    from repro.obs.export import cost_dict

    params = _PARAM_SETS[args.params]
    config = _CONFIGS[args.config]()
    cache = CacheModel.from_mb(args.cache_mb) if args.cache_mb else None
    breakdown = BootstrapModel(params, config, cache).cost()
    total = breakdown.total
    if args.json:
        _print_json(
            {
                "params": args.params,
                "config": asdict(config),
                "cache_mb": args.cache_mb,
                "phases": {
                    name: cost_dict(cost)
                    for name, cost in breakdown.phases().items()
                },
                "total": cost_dict(total),
            }
        )
        return 0
    print(params.describe())
    for name, cost in breakdown.phases().items():
        print(
            f"  {name:14} {cost.giga_ops():8.1f} Gops  "
            f"{cost.gigabytes():7.1f} GB  AI {cost.arithmetic_intensity:5.2f}"
        )
    print(
        f"  {'Total':14} {total.giga_ops():8.1f} Gops  "
        f"{total.gigabytes():7.1f} GB  AI {total.arithmetic_intensity:5.2f}"
    )
    return 0


def _cmd_ledger(args) -> int:
    from repro.obs.export import cost_dict

    params = _PARAM_SETS[args.params]
    config = _CONFIGS[args.config]()
    ledger = BootstrapModel(params, config).ledger()
    if args.json:
        _print_json(
            {
                "params": args.params,
                "config": asdict(config),
                "components": {
                    label: cost_dict(cost)
                    for label, cost in ledger.by_label().items()
                },
                "total": cost_dict(ledger.total),
            }
        )
        return 0
    print(params.describe())
    print(ledger.render())
    return 0


def _cmd_balance(args) -> int:
    from repro.hardware import PRIOR_DESIGNS, balance_point, mad_counterpart, render_balance

    cost = BootstrapModel(MAD_OPTIMAL, MADConfig.all()).total_cost()
    for name, design in PRIOR_DESIGNS.items():
        mad = mad_counterpart(design)
        print(render_balance(mad.name, balance_point(cost, mad)))
    return 0


def _cmd_trace(args) -> int:
    from repro.obs import schema
    from repro.obs import state as obs
    from repro.obs.export import (
        RUN_REPORT,
        attribute_runtime,
        build_run_report,
        render_flat_profile,
        write_chrome_trace,
    )

    params = _PARAM_SETS[args.params]
    config = _CONFIGS[args.config]()
    cache = CacheModel.from_mb(args.cache_mb) if args.cache_mb else None

    if args.target == "bootstrap":
        workload_name = "bootstrap"

        def run():
            return BootstrapModel(params, config, cache).ledger().total

    else:
        from repro.apps import helr_training, resnet20_inference, workload_cost

        workload = (
            helr_training(params)
            if args.target == "helr"
            else resnet20_inference(params)
        )
        workload_name = workload.name

        def run():
            return workload_cost(workload, params, config, cache).total

    untraced = run()
    with obs.capture() as (tracer, registry):
        traced = run()
    # Tracing must be a pure observer: both the model's own total and the
    # sum of span costs have to match the untraced run bit-for-bit.
    if traced != untraced:
        raise SystemExit("trace changed the model output; refusing to export")
    if tracer.total_cost() != untraced:
        raise SystemExit("span costs do not sum to the model total")

    runtime = None
    if args.design:
        from repro.hardware import PRIOR_DESIGNS

        if args.design not in PRIOR_DESIGNS:
            raise SystemExit(
                f"unknown design {args.design!r}; "
                f"choose from {', '.join(sorted(PRIOR_DESIGNS))}"
            )
        estimate = attribute_runtime(tracer, PRIOR_DESIGNS[args.design])
        if estimate is not None:
            runtime = {
                "design": args.design,
                "compute_seconds": estimate.compute_seconds,
                "memory_seconds": estimate.memory_seconds,
                "roofline_seconds": estimate.seconds,
                "bound": estimate.bound,
            }

    metadata = {
        "workload": workload_name,
        "params": args.params,
        "config": args.config,
        "cache_mb": args.cache_mb,
    }
    if args.metrics:
        # Embed the registry snapshot so metric deltas (cache-fit
        # decisions, NTT invocations) are diffable from the trace alone.
        metadata["metrics"] = registry.snapshot()
    write_chrome_trace(tracer, args.out, metadata)
    print(render_flat_profile(tracer))
    if args.metrics:
        counters = registry.counters()
        if counters:
            width = max(len(name) for name in counters)
            print("\nCounters")
            for name, value in counters.items():
                print(f"  {name:{width}} {value:>12,}")
    print(f"\nwrote Chrome trace to {args.out}")

    if args.report:
        report = build_run_report(
            tracer,
            registry,
            command=f"trace {args.target}",
            workload=workload_name,
            params=args.params,
            config=asdict(config),
            runtime=runtime,
        )
        schema.write(report, RUN_REPORT, args.report)
        print(f"wrote run report to {args.report}")
    return 0


def _cmd_diff(args) -> int:
    from repro.obs import schema
    from repro.obs.diff import (
        COST_DIFF,
        build_overlay_trace,
        diff_run_reports,
        render_attribution_table,
    )

    with open(args.base) as handle:
        base = json.load(handle)
    with open(args.other) as handle:
        other = json.load(handle)
    diff = diff_run_reports(
        base,
        other,
        rename_tolerance=not args.no_renames,
        require_same_workload=not args.force,
    )
    print(render_attribution_table(diff, top=args.top))
    if args.json:
        schema.write(diff, COST_DIFF, args.json)
        print(f"\nwrote cost diff to {args.json}")
    if args.overlay:
        with open(args.overlay, "w") as handle:
            json.dump(build_overlay_trace(base, other, diff), handle, indent=1)
        print(f"wrote Chrome-trace overlay to {args.overlay}")
    return 0


def _cmd_bench(args) -> int:
    from repro.obs.baseline import BaselineStore, Tolerance
    from repro.obs.bench import DEFAULT_SPECS, run_bench

    specs = DEFAULT_SPECS
    if args.workloads:
        wanted = [w.strip() for w in args.workloads.split(",") if w.strip()]
        specs = tuple(
            spec for spec in specs if any(w in spec.name for w in wanted)
        )
        if not specs:
            known = ", ".join(spec.name for spec in DEFAULT_SPECS)
            raise SystemExit(
                f"no bench workloads match {args.workloads!r}; known: {known}"
            )
    if args.list:
        for spec in specs:
            print(spec.name)
        return 0
    store = BaselineStore(args.baseline_dir) if args.baseline_dir else BaselineStore()
    code = run_bench(
        specs,
        store,
        update=args.update,
        tolerance=Tolerance(relative=args.rel_tol, absolute=args.abs_tol),
        out_dir=args.out_dir,
    )
    return code if args.check or args.update else 0


def _cmd_kernels(args) -> int:
    """Differential parity (and optionally speedup) of the int64 kernels."""
    from repro.kernels.check import render_report, run_check

    degrees = [int(d.strip()) for d in args.degrees.split(",") if d.strip()]
    if not degrees:
        raise SystemExit(f"no ring degrees in {args.degrees!r}")
    report = run_check(
        degrees=degrees,
        limbs=args.limbs,
        repeats=args.repeats,
        min_speedup=args.min_speedup,
        parity_only=args.parity_only,
        seed=args.seed,
    )
    if args.json:
        _print_json(report)
    else:
        print(render_report(report))
    return 0 if report["passed"] else 1


def _cmd_memsim(args) -> int:
    from repro.memsim.validate import (
        LADDER_PRIMITIVES,
        MEMSIM_REPORT,
        render_report,
        run_validation,
    )
    from repro.obs import schema

    primitives = None
    if args.primitive:
        unknown = [p for p in args.primitive if p not in LADDER_PRIMITIVES]
        if unknown:
            raise SystemExit(
                f"unknown primitive(s) {', '.join(unknown)}; "
                f"choose from {', '.join(LADDER_PRIMITIVES)}"
            )
        primitives = args.primitive

    runs = None
    if args.cache_mb is not None:
        # Single-point validation at one capacity under one config,
        # instead of the default Fig. 2 ladder matrix.
        config = _CONFIGS[args.config]()
        runs = [(args.config, config, args.cache_mb)]
    report = run_validation(
        params_key=args.params,
        policy_name=args.policy,
        tolerance=args.tolerance,
        runs=runs,
        primitives=primitives,
        jobs=args.jobs,
    )
    if args.out:
        schema.write(report, MEMSIM_REPORT, args.out)
    if args.json:
        _print_json(report)
    else:
        print(render_report(report))
        if args.out:
            print(f"wrote memsim report to {args.out}")
    return 0 if report["passed"] else 1


def _cmd_lint(args) -> int:
    from repro.lint.cli import lint_command

    return lint_command(args)


def _cmd_search(args) -> int:
    from repro.hardware import HardwareDesign
    from repro.search import enumerate_parameter_space, find_optimal_parameters

    design = HardwareDesign(
        name="custom",
        modular_multipliers=args.multipliers,
        on_chip_mb=args.cache_mb,
        bandwidth_gb_s=args.bandwidth,
        params=BASELINE_JUNG,
    )
    candidates = None
    if args.quick:
        candidates = list(
            enumerate_parameter_space(
                log_q_choices=(46, 50, 54, 58),
                max_limbs_choices=(30, 35, 40),
                dnum_choices=(1, 2, 3),
                fft_iter_choices=(3, 4, 6),
            )
        )
    for rank, result in enumerate(
        find_optimal_parameters(
            design, candidates=candidates, top=args.top, jobs=args.jobs
        ),
        start=1,
    ):
        print(f"#{rank} {result.describe()}")
    return 0


def _run_sweep_with_telemetry(args, spec, command, workload, resume=None):
    """``run_sweep`` under the ``--events`` / ``--report`` flags.

    ``--events`` streams the run's event log; ``--report`` captures
    telemetry: workers ship span/metric snapshots back and the engine
    merges them in canonical chunk order, so the exported run report is
    bit-identical (post ``strip_volatile``) for any ``--jobs``.
    """
    import time

    from repro.obs import state as obs
    from repro.sweep import run_sweep

    event_log = None
    if args.events:
        from repro.obs.events import RUN_END, EventLog, provenance

        event_log = EventLog(args.events)
        event_log.start(
            command=command,
            provenance_block=provenance(config_fingerprint=spec.fingerprint()),
        )
    try:
        if args.report:
            from repro.obs import schema
            from repro.obs.export import RUN_REPORT, build_run_report
            from repro.obs.profiler import (
                process_cpu_seconds,
                run_resource_summary,
            )

            wall0 = time.perf_counter()
            cpu0 = process_cpu_seconds()
            with obs.capture() as (tracer, registry):
                outcome = run_sweep(
                    spec, jobs=args.jobs, resume=resume, events=event_log
                )
                resources = run_resource_summary(
                    wall_seconds=time.perf_counter() - wall0,
                    cpu_seconds=process_cpu_seconds() - cpu0,
                )
            run_report = build_run_report(
                tracer,
                registry,
                command=command,
                workload=workload,
                resources=resources,
            )
            schema.write(run_report, RUN_REPORT, args.report)
        else:
            outcome = run_sweep(
                spec, jobs=args.jobs, resume=resume, events=event_log
            )
        if event_log is not None:
            event_log.emit(RUN_END, {"exit_code": 0})
    finally:
        if event_log is not None:
            event_log.close()
    return outcome


def _cmd_sweep(args) -> int:
    from repro.obs import schema
    from repro.sweep import (
        SWEEP_REPORT,
        build_preset,
        build_sweep_report,
        preset_names,
    )

    if args.list:
        for name in preset_names():
            print(name)
        return 0
    if not args.preset:
        raise SystemExit(
            f"choose a sweep preset: {', '.join(preset_names())} "
            "(or --list to enumerate)"
        )
    spec = build_preset(args.preset, quick=args.quick)
    resume = None
    if args.resume:
        resume = schema.load(args.resume, SWEEP_REPORT)
        if resume is None:
            print(f"no resumable report at {args.resume}; starting fresh")

    outcome = _run_sweep_with_telemetry(
        args,
        spec,
        command=f"sweep {args.preset}",
        workload=f"sweep:{spec.name}",
        resume=resume,
    )
    report = build_sweep_report(outcome)
    if args.out:
        schema.write(report, SWEEP_REPORT, args.out)
    if args.json:
        _print_json(report)
        return 0
    print(
        f"sweep {spec.name}: {outcome.evaluated} evaluated, "
        f"{outcome.reused} reused, {outcome.chunks} chunks, "
        f"jobs={outcome.jobs}"
    )
    print(
        f"  memo hit rate {outcome.memo_hit_rate:.1%}, "
        f"worker utilisation {outcome.worker_utilisation:.1%}, "
        f"wall {outcome.wall_seconds:.2f}s"
    )
    if args.out:
        print(f"wrote sweep report to {args.out}")
    if args.events:
        print(f"wrote event log to {args.events}")
    if args.report:
        print(f"wrote run report to {args.report}")
    return 0


def _cmd_serve(args) -> int:
    from repro.obs import schema
    from repro.serve import SCENARIOS, SERVE_REPORT, assemble_serve_report
    from repro.sweep import SweepAxis, SweepSpec

    if args.list:
        for name in sorted(SCENARIOS):
            print(name)
        return 0
    if args.scenario not in SCENARIOS:
        raise SystemExit(
            f"choose a serving scenario: {', '.join(sorted(SCENARIOS))} "
            "(or --list to enumerate)"
        )
    scenario = SCENARIOS[args.scenario]
    # One grid point per fleet: the same evaluator capacity sweeps use,
    # so serial and --jobs N runs assemble byte-identical reports.
    spec = SweepSpec(
        name=f"serve-{scenario.name}",
        evaluator="serve.scenario",
        axes=(
            SweepAxis("fleet", tuple(f.name for f in scenario.fleets)),
        ),
        context={"scenario": scenario.name, "seed": args.seed},
    )
    outcome = _run_sweep_with_telemetry(
        args,
        spec,
        command=f"serve {scenario.name}",
        workload=f"serve:{scenario.name}",
    )
    report = assemble_serve_report(scenario, args.seed, outcome.rows)
    if args.out:
        schema.write(report, SERVE_REPORT, args.out)
    if args.json:
        _print_json(report)
        return 0
    print(
        f"serve {scenario.name}: seed {args.seed}, "
        f"{scenario.duration_s:g}s horizon, "
        f"{len(report['fleets'])} fleets, config {scenario.config}"
    )
    for fleet in report["fleets"]:
        requests = fleet["requests"]
        batching = fleet["batching"]
        print(
            f"  {fleet['fleet']:16} {fleet['design']:14} "
            f"x{fleet['devices']} {fleet['scheduler']:4} "
            f"cache={fleet['cache_policy']:8} "
            f"{requests['completed']:5d} req "
            f"{fleet['throughput_rps']:7.1f} rps "
            f"util {fleet['utilisation']:6.1%} "
            f"batch {batching['mean_size']:4.2f} "
            f"ksk saved {batching['key_read_saved_fraction']:5.1%}"
        )
        for tenant in fleet["tenants"]:
            latency = tenant["latency"]
            sla = tenant["sla"]
            if latency is None:
                line = "no completions"
            else:
                line = (
                    f"p50 {latency['p50_ms']:8.2f}ms "
                    f"p99 {latency['p99_ms']:8.2f}ms "
                    f"p999 {latency['p999_ms']:8.2f}ms"
                )
            if sla["met"] is not None:
                target = sla["p99_target_ms"]
                verdict = "met" if sla["met"] else "MISSED"
                line += f"  sla p99<={target:g}ms {verdict}"
            print(
                f"    {tenant['tenant']:14} {tenant['completed']:5d} req "
                f"{tenant['bootstraps']:3d} boot  {line}"
            )
    if args.out:
        print(f"wrote serve report to {args.out}")
    if args.events:
        print(f"wrote event log to {args.events}")
    if args.report:
        print(f"wrote run report to {args.report}")
    return 0


def _profile_workload(args):
    """``(name, thunk)`` for a profile target; thunk returns the total cost."""
    params = _PARAM_SETS[args.params]
    config = _CONFIGS[args.config]()
    cache = CacheModel.from_mb(args.cache_mb) if args.cache_mb else None
    if args.target == "bootstrap":
        return "bootstrap", lambda: BootstrapModel(params, config, cache).ledger().total
    if args.target == "micro":
        from repro.obs.bench import primitive_micro_cost

        return "micro", lambda: primitive_micro_cost(params, config, cache)
    from repro.apps import helr_training, resnet20_inference, workload_cost

    workload = (
        helr_training(params) if args.target == "helr" else resnet20_inference(params)
    )
    return workload.name, lambda: workload_cost(workload, params, config, cache).total


def _cmd_profile(args) -> int:
    import time

    from repro.obs import schema
    from repro.obs.export import RUN_REPORT, build_run_report
    from repro.obs.profiler import (
        process_cpu_seconds,
        profile_capture,
        render_resource_profile,
        run_resource_summary,
    )

    workload_name, run = _profile_workload(args)
    wall0 = time.perf_counter()
    cpu0 = process_cpu_seconds()
    with profile_capture(
        max_depth=args.depth, trace_allocs=not args.no_alloc
    ) as (tracer, registry):
        run()
        # Summarised inside the block: tracemalloc stops at exit.
        resources = run_resource_summary(
            wall_seconds=time.perf_counter() - wall0,
            cpu_seconds=process_cpu_seconds() - cpu0,
        )
    if args.json:
        _print_json(
            {
                "workload": workload_name,
                "params": args.params,
                "config": args.config,
                "resources": resources,
                "spans": [
                    {
                        "name": span.name,
                        "depth": span.depth,
                        "resource": span.meta["resource"],
                    }
                    for span in tracer.spans()
                    if "resource" in span.meta
                ],
            }
        )
    else:
        print(render_resource_profile(tracer))
        print(
            f"\nwall {resources['wall_seconds']:.3f}s, "
            f"cpu {resources['cpu_seconds']:.3f}s, "
            f"gc {resources['gc_collections']} collections"
        )
    if args.report:
        report = build_run_report(
            tracer,
            registry,
            command=f"profile {args.target}",
            workload=workload_name,
            params=args.params,
            resources=resources,
        )
        schema.write(report, RUN_REPORT, args.report)
        print(f"wrote run report to {args.report}")
    return 0


def _render_top(model) -> str:
    from repro.obs.profiler import _format_bytes  # rendering helper

    total = model["points_total"] or 0
    done = model["points_done"]
    pct = done / total if total else 0.0
    status = "finished" if model["finished"] else "in flight"
    bar_width = 30
    filled = int(round(pct * bar_width))
    bar = "#" * filled + "-" * (bar_width - filled)
    lines = [
        f"sweep {model['sweep'] or model['command'] or '?'} [{status}] "
        f"jobs={model.get('jobs', 1)}",
        f"  [{bar}] {done:,}/{total:,} points ({pct:.1%})",
        f"  rate {model['points_per_second']:,.1f} points/s, "
        f"memo hit rate {model['memo_hit_rate']:.1%}, "
        f"wall {model['wall_seconds']:.2f}s",
    ]
    for worker in sorted(model["workers"].values(), key=lambda w: w["pid"]):
        lines.append(
            f"  pid {worker['pid']:>7}: {worker['chunks']:>4} chunks, "
            f"peak RSS {_format_bytes(worker['peak_rss_bytes'])}"
        )
    return "\n".join(lines)


def _cmd_top(args) -> int:
    import time

    from repro.obs.dash import build_dashboard
    from repro.obs.events import read_events

    while True:
        # Non-strict: the sweep may still be appending; a torn trailing
        # line is dropped rather than treated as corruption.
        events = read_events(args.events, strict=False)
        model = build_dashboard(events)
        print(_render_top(model))
        if model["finished"] or not args.follow:
            return 0
        time.sleep(args.interval)
        print()


def _cmd_dash(args) -> int:
    from repro.obs.dash import write_dashboard

    model = write_dashboard(args.events, args.out)
    print(
        f"wrote dashboard to {args.out} "
        f"({model['points_done']:,}/{model['points_total']:,} points, "
        f"{len(model['workers'])} workers, "
        f"{'finished' if model['finished'] else 'in flight'})"
    )
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="MAD / SimFHE reproduction toolkit",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("table4", help="per-primitive ops/DRAM/AI table")
    p.add_argument("--params", choices=_PARAM_SETS, default="baseline")
    p.add_argument("--config", choices=_CONFIGS, default="none")
    p.add_argument("--json", action="store_true", help="machine-readable output")
    p.set_defaults(func=_cmd_table4)

    p = sub.add_parser("table5", help="memory-aware optimal parameters")
    p.add_argument("--quick", action="store_true", help="search a small grid")
    p.add_argument(
        "--jobs", type=int, default=1, help="sweep worker processes"
    )
    p.set_defaults(func=_cmd_table5)

    p = sub.add_parser("table6", help="bootstrapping design comparison")
    p.add_argument("--json", action="store_true", help="machine-readable output")
    p.set_defaults(func=_cmd_table6)

    p = sub.add_parser("fig1", help="Rotate O(1)-caching example")
    p.set_defaults(func=_cmd_fig1)

    p = sub.add_parser("fig2", help="caching-optimization ladder")
    p.add_argument("--json", action="store_true", help="machine-readable output")
    p.set_defaults(func=_cmd_fig2)

    p = sub.add_parser("fig3", help="algorithmic-optimization ladder")
    p.add_argument("--params", choices=_PARAM_SETS, default="optimal")
    p.add_argument("--json", action="store_true", help="machine-readable output")
    p.set_defaults(func=_cmd_fig3)

    p = sub.add_parser("fig6", help="ML application comparison")
    p.add_argument("--workload", choices=("lr", "resnet"), default="lr")
    p.add_argument("--design", default="BTS")
    p.add_argument("--caches", default="32,256")
    p.add_argument(
        "--jobs", type=int, default=1, help="sweep worker processes"
    )
    p.set_defaults(func=_cmd_fig6)

    p = sub.add_parser("bootstrap", help="bootstrap cost breakdown")
    p.add_argument("--params", choices=_PARAM_SETS, default="baseline")
    p.add_argument("--config", choices=_CONFIGS, default="none")
    p.add_argument("--cache-mb", type=float, default=None)
    p.add_argument("--json", action="store_true", help="machine-readable output")
    p.set_defaults(func=_cmd_bootstrap)

    p = sub.add_parser("ledger", help="labeled bootstrap cost ledger")
    p.add_argument("--params", choices=_PARAM_SETS, default="baseline")
    p.add_argument("--config", choices=_CONFIGS, default="none")
    p.add_argument("--json", action="store_true", help="machine-readable output")
    p.set_defaults(func=_cmd_ledger)

    p = sub.add_parser(
        "trace",
        help="trace a run and export Chrome trace-event JSON",
    )
    p.add_argument("target", choices=("bootstrap", "helr", "resnet"))
    p.add_argument("--out", required=True, help="Chrome trace output path")
    p.add_argument("--params", choices=_PARAM_SETS, default="baseline")
    p.add_argument("--config", choices=_CONFIGS, default="none")
    p.add_argument("--cache-mb", type=float, default=None)
    p.add_argument(
        "--design",
        default=None,
        help="attribute roofline runtime on a prior design (e.g. BTS)",
    )
    p.add_argument(
        "--report", default=None, help="also write run_report.json here"
    )
    p.add_argument(
        "--metrics",
        action="store_true",
        help="print MetricsRegistry counters and embed them in the trace",
    )
    p.set_defaults(func=_cmd_trace)

    p = sub.add_parser(
        "diff",
        help="differential cost attribution between two run reports",
    )
    p.add_argument("base", help="baseline run_report.json")
    p.add_argument("other", help="comparison run_report.json")
    p.add_argument(
        "--json", default=None, help="write machine-readable cost_diff.json"
    )
    p.add_argument(
        "--overlay",
        default=None,
        help="write a Chrome-trace overlay of both runs",
    )
    p.add_argument("--top", type=int, default=20, help="span rows to print")
    p.add_argument(
        "--force",
        action="store_true",
        help="diff even when the reports ran different workloads",
    )
    p.add_argument(
        "--no-renames",
        action="store_true",
        help="disable positional rename alignment of unmatched spans",
    )
    p.set_defaults(func=_cmd_diff)

    p = sub.add_parser(
        "bench",
        help="run the analytical bench matrix against committed baselines",
    )
    p.add_argument(
        "--check",
        action="store_true",
        help="exit non-zero on any cost regression or missing baseline",
    )
    p.add_argument(
        "--update",
        action="store_true",
        help="(re)write the baseline snapshots instead of gating",
    )
    p.add_argument(
        "--workloads",
        default=None,
        help="comma-separated substrings selecting bench workloads",
    )
    p.add_argument(
        "--baseline-dir",
        default=None,
        help="baseline directory (default: benchmarks/baselines)",
    )
    p.add_argument(
        "--out-dir",
        default=None,
        help="write BENCH_*.json trajectories and cost_diff_*.json here",
    )
    p.add_argument(
        "--rel-tol",
        type=float,
        default=0.0,
        help="relative cost growth tolerated before failing",
    )
    p.add_argument(
        "--abs-tol",
        type=float,
        default=0.0,
        help="absolute cost growth tolerated before failing",
    )
    p.add_argument(
        "--list", action="store_true", help="list bench workloads and exit"
    )
    p.set_defaults(func=_cmd_bench)

    p = sub.add_parser(
        "kernels",
        help="int64 NTT kernels vs the pure-Python oracle: parity + speedup",
    )
    p.add_argument(
        "--degrees",
        default="4096",
        help="comma-separated ring degrees to check (powers of two)",
    )
    p.add_argument(
        "--limbs", type=int, default=8, help="RNS limb count per degree"
    )
    p.add_argument(
        "--repeats", type=int, default=3, help="min-of-k timing repeats"
    )
    p.add_argument(
        "--min-speedup",
        type=float,
        default=None,
        help="fail unless the vectorized/oracle speedup reaches this",
    )
    p.add_argument(
        "--parity-only",
        action="store_true",
        help="skip timing; only assert bit-exact oracle parity (CI mode)",
    )
    p.add_argument("--seed", type=int, default=2012, help="input PRNG seed")
    p.add_argument(
        "--json", action="store_true", help="emit a JSON report to stdout"
    )
    p.set_defaults(func=_cmd_kernels)

    p = sub.add_parser(
        "memsim",
        help="trace-driven simulation validating the analytical DRAM model",
    )
    p.add_argument("--params", choices=_PARAM_SETS, default="baseline")
    p.add_argument(
        "--config",
        choices=_CONFIGS,
        default="caching",
        help="MAD config for --cache-mb single-point runs "
        "(the default ladder sweeps all caching rungs)",
    )
    p.add_argument(
        "--policy",
        choices=("lru", "belady", "pin"),
        default="pin",
        help="replacement policy for the simulated on-chip memory",
    )
    p.add_argument(
        "--cache-mb",
        type=float,
        default=None,
        help="validate at one capacity (decimal MB) instead of the ladder",
    )
    p.add_argument(
        "--primitive",
        action="append",
        default=None,
        metavar="NAME",
        help="validate only the named primitive (repeatable)",
    )
    p.add_argument(
        "--tolerance",
        type=float,
        default=0.05,
        help="per-stream relative-error gate (default 0.05)",
    )
    p.add_argument(
        "--out", default=None, help="write memsim_report.json here"
    )
    p.add_argument("--json", action="store_true", help="machine-readable output")
    p.add_argument(
        "--jobs", type=int, default=1, help="sweep worker processes"
    )
    p.set_defaults(func=_cmd_memsim)

    p = sub.add_parser(
        "lint",
        help="domain-aware static analysis (cost-model + span invariants)",
    )
    p.add_argument(
        "paths",
        nargs="*",
        default=None,
        help="files or directories to lint (default: src/repro)",
    )
    p.add_argument(
        "--json", action="store_true", help="machine-readable report"
    )
    p.add_argument(
        "--rule",
        action="append",
        default=None,
        metavar="NAME",
        help="run only the named rule (repeatable)",
    )
    p.add_argument(
        "--list-rules",
        action="store_true",
        help="print every registered rule with its description and exit",
    )
    p.add_argument(
        "--program",
        action="store_true",
        help="additionally run the whole-program pass (taint, schema)",
    )
    p.add_argument(
        "--changed-only",
        action="store_true",
        help="replay the previous result from .lint_cache/ when no file changed",
    )
    p.add_argument(
        "--format",
        choices=("text", "json", "sarif"),
        default=None,
        help="output format (default: text, or json with --json)",
    )
    p.add_argument(
        "--out",
        default=None,
        metavar="FILE",
        help="also write the chosen format to FILE (stdout stays text)",
    )
    p.set_defaults(func=_cmd_lint)

    p = sub.add_parser("balance", help="roofline balance of MAD design points")
    p.set_defaults(func=_cmd_balance)

    p = sub.add_parser("search", help="parameter search for a hardware budget")
    p.add_argument("--multipliers", type=int, default=4096)
    p.add_argument("--bandwidth", type=float, default=1000)
    p.add_argument("--cache-mb", type=float, default=32)
    p.add_argument("--top", type=int, default=5)
    p.add_argument("--quick", action="store_true")
    p.add_argument(
        "--jobs", type=int, default=1, help="sweep worker processes"
    )
    p.set_defaults(func=_cmd_search)

    p = sub.add_parser(
        "sweep",
        help="run a declarative parameter sweep over worker processes",
    )
    p.add_argument(
        "preset",
        nargs="?",
        default=None,
        help="sweep preset name (see --list)",
    )
    p.add_argument(
        "--jobs",
        type=int,
        default=1,
        help="worker processes; 1 evaluates in-process",
    )
    p.add_argument(
        "--quick",
        action="store_true",
        help="use the preset's reduced grid",
    )
    p.add_argument(
        "--resume",
        default=None,
        metavar="REPORT",
        help="reuse completed points from a prior sweep_report.json",
    )
    p.add_argument(
        "--out", default=None, help="write sweep_report.json here"
    )
    p.add_argument(
        "--events",
        default=None,
        metavar="PATH",
        help="stream a repro.obs.events/v1 JSONL event log here "
        "(live-tailable by `repro top` and renderable by `repro dash`)",
    )
    p.add_argument(
        "--report",
        default=None,
        metavar="PATH",
        help="capture cross-process telemetry and write the merged "
        "run_report.json here (bit-identical across --jobs after "
        "strip_volatile)",
    )
    p.add_argument("--json", action="store_true", help="machine-readable output")
    p.add_argument(
        "--list", action="store_true", help="list sweep presets and exit"
    )
    p.set_defaults(func=_cmd_sweep)

    p = sub.add_parser(
        "serve",
        help="simulate a multi-tenant serving scenario on accelerator fleets",
    )
    p.add_argument(
        "scenario",
        nargs="?",
        default=None,
        help="serving scenario name (see --list)",
    )
    p.add_argument(
        "--seed",
        type=int,
        default=0,
        help="arrival-stream seed (same seed -> byte-identical report)",
    )
    p.add_argument(
        "--jobs",
        type=int,
        default=1,
        help="worker processes (one fleet per grid point); 1 is in-process",
    )
    p.add_argument(
        "--out", default=None, help="write serve_report.json here"
    )
    p.add_argument(
        "--events",
        default=None,
        metavar="PATH",
        help="stream a repro.obs.events/v1 JSONL event log here "
        "(live-tailable by `repro top` and renderable by `repro dash`)",
    )
    p.add_argument(
        "--report",
        default=None,
        metavar="PATH",
        help="capture cross-process telemetry and write the merged "
        "run_report.json here",
    )
    p.add_argument("--json", action="store_true", help="machine-readable output")
    p.add_argument(
        "--list", action="store_true", help="list serving scenarios and exit"
    )
    p.set_defaults(func=_cmd_serve)

    p = sub.add_parser(
        "profile",
        help="attribute host resources (RSS, allocations, CPU, GC) span by span",
    )
    p.add_argument("target", choices=("bootstrap", "helr", "resnet", "micro"))
    p.add_argument("--params", choices=_PARAM_SETS, default="baseline")
    p.add_argument("--config", choices=_CONFIGS, default="none")
    p.add_argument("--cache-mb", type=float, default=None)
    p.add_argument(
        "--depth",
        type=int,
        default=3,
        help="meter spans down to this stack depth (deeper spans trace unmetered)",
    )
    p.add_argument(
        "--no-alloc",
        action="store_true",
        help="skip tracemalloc (cheaper; loses allocation peaks)",
    )
    p.add_argument(
        "--report", default=None, help="also write run_report.json here"
    )
    p.add_argument("--json", action="store_true", help="machine-readable output")
    p.set_defaults(func=_cmd_profile)

    p = sub.add_parser(
        "top",
        help="render sweep progress from an event log (live-tails with --follow)",
    )
    p.add_argument("events", help="events.jsonl written by `sweep --events`")
    p.add_argument(
        "--follow",
        action="store_true",
        help="re-render every --interval seconds until the sweep finishes",
    )
    p.add_argument(
        "--interval", type=float, default=1.0, help="polling interval seconds"
    )
    p.set_defaults(func=_cmd_top)

    p = sub.add_parser(
        "dash",
        help="render an event log as a self-contained HTML dashboard",
    )
    p.add_argument("events", help="events.jsonl written by `sweep --events`")
    p.add_argument(
        "--out", default="dash.html", help="output path (default dash.html)"
    )
    p.set_defaults(func=_cmd_dash)

    return parser


def main(argv: Optional[List[str]] = None) -> int:
    from repro.obs import state as obs

    args = build_parser().parse_args(argv)
    # Every invocation runs against pristine observability state and
    # restores the caller's on exit: repeated in-process main() calls
    # (tests, notebooks) must not leak a tracer or registry between
    # commands through the module-global registry.
    with obs.scoped():
        return args.func(args)


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
