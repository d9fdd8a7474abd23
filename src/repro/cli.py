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
    python -m repro sweep table5 --out sweep_report.json
    python -m repro sweep table5 --report run_report.json
    python -m repro profile bootstrap --params optimal --config all

Table commands accept ``--json`` for machine-readable output; ``trace``
records a hierarchical span tree and writes it as Chrome trace-event JSON
(viewable in Perfetto or ``chrome://tracing``); ``diff`` attributes the
cost delta between two run reports span by span; ``bench`` gates the
analytical workloads against the committed baselines in
``benchmarks/baselines/``; ``sweep`` runs a declarative parameter sweep
(see :mod:`repro.sweep`) with a machine-readable report, optionally
writing its traced ``run_report.json``; ``profile`` attributes host
resources (RSS, allocation peaks, CPU, GC) span by span.

The parser is one table, :data:`_COMMANDS`: a row names a subcommand's
handler, the shared flags it takes from :data:`_SHARED` (each declared
once), its per-command defaults and its own arguments.  Names on the
command line resolve in one place each: parameter sets through
:data:`repro.params.PARAM_SETS`, configs through
:data:`repro.perf.CONFIGS`, workloads through
:func:`repro.obs.bench.resolve_workload`.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from dataclasses import asdict
from typing import Any, Callable, Dict, List, Optional, Tuple

from repro.hardware import PRIOR_DESIGNS
from repro.params import BASELINE_JUNG, MAD_OPTIMAL, PARAM_SETS
from repro.perf import CONFIGS, BootstrapModel, MADConfig


def _print_json(payload) -> None:
    print(json.dumps(payload, indent=1, sort_keys=True))


def _cmd_table4(args) -> int:
    from repro.report import generate_table4, render_table4

    rows = generate_table4(PARAM_SETS[args.params], CONFIGS[args.config])
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
    print(render_table5(generate_table5(candidates=candidates)))
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

    points = generate_fig3(PARAM_SETS[args.params])
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
    from repro.report import generate_fig6_lr, generate_fig6_resnet

    generate = generate_fig6_lr if args.workload == "lr" else generate_fig6_resnet
    for bar in generate(PRIOR_DESIGNS[args.design], args.caches):
        print(
            f"{bar.label:30} {bar.seconds:9.3f} s ({bar.bound}-bound) "
            f"{bar.speedup_vs_original:6.2f}x"
        )
    return 0


def _cmd_bootstrap(args) -> int:
    from repro.obs.bench import resolve_model
    from repro.obs.export import cost_dict

    params, config, cache = resolve_model(args.params, args.config, args.cache_mb)
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

    params = PARAM_SETS[args.params]
    config = CONFIGS[args.config]
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
    from repro.hardware import balance_point, mad_counterpart, render_balance

    cost = BootstrapModel(MAD_OPTIMAL, MADConfig.all()).total_cost()
    for name, design in PRIOR_DESIGNS.items():
        mad = mad_counterpart(design)
        print(render_balance(mad.name, balance_point(cost, mad)))
    return 0


def _cmd_trace(args) -> int:
    from repro.obs import schema
    from repro.obs import state as obs
    from repro.obs.bench import resolve_workload
    from repro.obs.export import (
        RUN_REPORT,
        attribute_runtime,
        build_run_report,
        render_flat_profile,
        write_chrome_trace,
    )

    workload_name, run = resolve_workload(
        args.target, args.params, args.config, args.cache_mb
    )
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
        runtime = attribute_runtime(tracer, PRIOR_DESIGNS[args.design])

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
            config=asdict(CONFIGS[args.config]),
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
    from repro.obs.baseline import BaselineStore
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
    code = run_bench(specs, store, update=args.update, out_dir=args.out_dir)
    return code if args.check or args.update else 0


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
        runs = [(args.config, CONFIGS[args.config], args.cache_mb)]
    report = run_validation(
        params_key=args.params,
        policy_name=args.policy,
        tolerance=args.tolerance,
        runs=runs,
        primitives=primitives,
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
        find_optimal_parameters(design, candidates=candidates, top=args.top),
        start=1,
    ):
        print(f"#{rank} {result.describe()}")
    return 0


def _cmd_sweep(args) -> int:
    from repro.obs import schema
    from repro.sweep import (
        SWEEP_REPORT,
        build_preset,
        build_sweep_report,
        preset_names,
        run_sweep,
    )

    if args.list:
        for name in preset_names():
            print(name)
        return 0
    if args.preset not in preset_names():
        raise SystemExit(
            f"choose a sweep preset: {', '.join(preset_names())} "
            "(or --list to enumerate)"
        )
    spec = build_preset(args.preset, quick=args.quick)
    if args.report:
        import time

        from repro.obs import state as obs
        from repro.obs.export import RUN_REPORT, build_run_report
        from repro.obs.profiler import process_cpu_seconds, run_resource_summary

        wall0 = time.perf_counter()
        cpu0 = process_cpu_seconds()
        with obs.capture() as (tracer, registry):
            outcome = run_sweep(spec)
            resources = run_resource_summary(
                wall_seconds=time.perf_counter() - wall0,
                cpu_seconds=process_cpu_seconds() - cpu0,
            )
        run_report = build_run_report(
            tracer,
            registry,
            command=f"sweep {args.preset}",
            workload=f"sweep:{spec.name}",
            resources=resources,
        )
        schema.write(run_report, RUN_REPORT, args.report)
    else:
        outcome = run_sweep(spec)
    report = build_sweep_report(outcome)
    if args.out:
        schema.write(report, SWEEP_REPORT, args.out)
    if args.json:
        _print_json(report)
        return 0
    print(
        f"sweep {spec.name}: {spec.size} points, "
        f"memo hit rate {outcome.memo_hit_rate:.1%}, "
        f"wall {outcome.wall_seconds:.2f}s"
    )
    if args.out:
        print(f"wrote sweep report to {args.out}")
    if args.report:
        print(f"wrote run report to {args.report}")
    return 0


def _cmd_profile(args) -> int:
    import time

    from repro.obs import schema
    from repro.obs.bench import resolve_workload
    from repro.obs.export import RUN_REPORT, build_run_report
    from repro.obs.profiler import (
        process_cpu_seconds,
        profile_capture,
        render_resource_profile,
        run_resource_summary,
    )

    workload_name, run = resolve_workload(
        args.target, args.params, args.config, args.cache_mb
    )
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


def _positive(
    kind: Callable[[str], Any], allow_zero: bool = False
) -> Callable[[str], Any]:
    """argparse type: a positive (with ``allow_zero``, non-negative), finite
    ``kind`` (bad input exits 2)."""
    sign = "non-negative" if allow_zero else "positive"

    def parse(text: str) -> Any:
        try:
            value = kind(text)
        except ValueError:
            raise argparse.ArgumentTypeError(
                f"expected {kind.__name__}, got {text!r}"
            )
        in_range = value >= 0 if allow_zero else value > 0
        if not (math.isfinite(value) and in_range):
            raise argparse.ArgumentTypeError(f"must be {sign}, got {text!r}")
        return value

    return parse


def _comma_list(kind: Callable[[str], Any]) -> Callable[[str], List[Any]]:
    """argparse type: a non-empty comma-separated list of positive ``kind``."""
    item = _positive(kind)

    def parse(text: str) -> List[Any]:
        values = [item(part.strip()) for part in text.split(",") if part.strip()]
        if not values:
            raise argparse.ArgumentTypeError(f"no values in {text!r}")
        return values

    return parse


#: Every flag more than one command takes, declared once.  A command row
#: names the ones it uses; a per-command default goes in the row's
#: ``set_defaults`` mapping.  ``diff --json``, ``trace --out`` and
#: ``search --cache-mb`` mean something else there and are those
#: commands' own arguments.
_SHARED: Dict[str, Dict[str, Any]] = {
    "--json": dict(action="store_true", help="machine-readable output"),
    "--params": dict(
        choices=PARAM_SETS, default="baseline", help="CKKS parameter set"
    ),
    "--config": dict(
        choices=CONFIGS, default="none", help="MAD optimization config"
    ),
    "--cache-mb": dict(
        type=_positive(float),
        default=None,
        help="on-chip memory in decimal MB (default: unbounded; memsim: "
        "validate at this one capacity instead of the ladder)",
    ),
    "--out": dict(
        default=None, metavar="PATH", help="also write the report file here"
    ),
    "--report": dict(
        default=None,
        metavar="PATH",
        help="also write run_report.json here (sweep: one sweep:point "
        "span per grid point, with its host resources)",
    ),
    "--quick": dict(action="store_true", help="use a reduced grid"),
    "--list": dict(action="store_true", help="list the choices and exit"),
    "--design": dict(
        choices=PRIOR_DESIGNS,
        default=None,
        help="prior design (trace: attribute roofline runtime on it)",
    ),
}


def _arg(*flags: str, **kwargs: Any) -> Tuple[Tuple[str, ...], Dict[str, Any]]:
    """A command's own argument, as ``add_argument`` takes it."""
    return flags, kwargs


#: One row per subcommand, in ``--help`` order: name, handler, help, the
#: shared flags it takes, its ``set_defaults``, then its own arguments.
_COMMANDS: Tuple[Any, ...] = (
    ("table4", _cmd_table4, "per-primitive ops/DRAM/AI table",
     ("--params", "--config", "--json"), {}),
    ("table5", _cmd_table5, "memory-aware optimal parameters",
     ("--quick",), {}),
    ("table6", _cmd_table6, "bootstrapping design comparison", ("--json",), {}),
    ("fig1", _cmd_fig1, "Rotate O(1)-caching example", (), {}),
    ("fig2", _cmd_fig2, "caching-optimization ladder", ("--json",), {}),
    ("fig3", _cmd_fig3, "algorithmic-optimization ladder",
     ("--params", "--json"), {"params": "optimal"}),
    ("fig6", _cmd_fig6, "ML application comparison",
     ("--design",), {"design": "BTS"},
     _arg("--workload", choices=("lr", "resnet"), default="lr"),
     _arg("--caches", type=_comma_list(float), default="32,256",
          help="comma-separated on-chip sizes in MB")),
    ("bootstrap", _cmd_bootstrap, "bootstrap cost breakdown",
     ("--params", "--config", "--cache-mb", "--json"), {}),
    ("ledger", _cmd_ledger, "labeled bootstrap cost ledger",
     ("--params", "--config", "--json"), {}),
    ("trace", _cmd_trace, "trace a run and export Chrome trace-event JSON",
     ("--params", "--config", "--cache-mb", "--design", "--report"), {},
     _arg("target", choices=("bootstrap", "helr", "resnet")),
     _arg("--out", required=True, help="Chrome trace output path"),
     _arg("--metrics", action="store_true",
          help="print MetricsRegistry counters and embed them in the trace")),
    ("diff", _cmd_diff,
     "differential cost attribution between two run reports", (), {},
     _arg("base", help="baseline run_report.json"),
     _arg("other", help="comparison run_report.json"),
     _arg("--json", default=None, help="write machine-readable cost_diff.json"),
     _arg("--overlay", default=None,
          help="write a Chrome-trace overlay of both runs"),
     _arg("--top", type=_positive(int), default=20, help="span rows to print"),
     _arg("--force", action="store_true",
          help="diff even when the reports ran different workloads"),
     _arg("--no-renames", action="store_true",
          help="disable positional rename alignment of unmatched spans")),
    ("bench", _cmd_bench,
     "run the analytical bench matrix against committed baselines",
     ("--list",), {},
     _arg("--check", action="store_true",
          help="exit non-zero on any cost regression or missing baseline"),
     _arg("--update", action="store_true",
          help="(re)write the baseline snapshots instead of gating"),
     _arg("--workloads", default=None,
          help="comma-separated substrings selecting bench workloads"),
     _arg("--baseline-dir", default=None,
          help="baseline directory (default: benchmarks/baselines)"),
     _arg("--out-dir", default=None,
          help="write cost_diff_*.json here for each workload that differs "
          "from its baseline")),
    ("memsim", _cmd_memsim,
     "trace-driven simulation validating the analytical DRAM model",
     ("--params", "--config", "--cache-mb", "--out", "--json"),
     {"config": "caching"},
     _arg("--policy", choices=("lru", "belady", "pin"), default="pin",
          help="replacement policy for the simulated on-chip memory"),
     _arg("--primitive", action="append", default=None, metavar="NAME",
          help="validate only the named primitive (repeatable)"),
     _arg("--tolerance", type=_positive(float, allow_zero=True), default=0.05,
          help="per-stream relative-error gate (default 0.05)")),
    ("balance", _cmd_balance, "roofline balance of MAD design points", (), {}),
    ("search", _cmd_search, "parameter search for a hardware budget",
     ("--quick",), {},
     _arg("--multipliers", type=_positive(int), default=4096),
     _arg("--bandwidth", type=_positive(float), default=1000),
     _arg("--cache-mb", type=_positive(float), default=32),
     _arg("--top", type=_positive(int), default=5)),
    ("sweep", _cmd_sweep, "run a declarative parameter sweep",
     ("--quick", "--out", "--report", "--json", "--list"), {},
     _arg("preset", nargs="?", default=None,
          help="sweep preset name (see --list)")),
    ("profile", _cmd_profile,
     "attribute host resources (RSS, allocations, CPU, GC) span by span",
     ("--params", "--config", "--cache-mb", "--report", "--json"), {},
     _arg("target", choices=("bootstrap", "helr", "resnet", "micro")),
     _arg("--depth", type=_positive(int), default=3,
          help="meter spans down to this stack depth (deeper spans trace "
          "unmetered)"),
     _arg("--no-alloc", action="store_true",
          help="skip tracemalloc (cheaper; loses allocation peaks)")),
)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="MAD / SimFHE reproduction toolkit",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, func, help_text, shared, defaults, *own in _COMMANDS:
        p = sub.add_parser(name, help=help_text)
        for flags, kwargs in own:
            p.add_argument(*flags, **kwargs)
        for flag in shared:
            p.add_argument(flag, **_SHARED[flag])
        p.set_defaults(func=func, **defaults)
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
