"""Runs one workload in this process and writes its result as JSON.

``run.py`` starts one fresh interpreter per workload with this script;
run it directly only to debug a workload::

    PYTHONPATH=src python bench/worker.py --workload lr-n13 --seed 0 \
        --seconds 8 --trace 0 --result /tmp/lr.json
"""

from __future__ import annotations

import argparse
import contextlib
import json
import math
import resource
import statistics
import sys
import time
import traceback
from typing import Any, Callable, ContextManager, Dict, List, Optional, Tuple

from layers import Tracer, coverage, layer_metrics, self_time_residual
from stats import tail
from workloads import WORKLOADS, Check, Workload

#: Per-op tolerance on |sum of self times - wall| / wall.
RESIDUAL_TOLERANCE = 0.01
#: Minimum share of an op's wall time the named layers must cover.
MIN_COVERAGE = 0.9


class Tally:
    """Attempted/failed counts and per-op check outcomes of one run."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.errors: List[float] = []
        self.digests: List[str] = []

    def attempt(
        self,
        wl: Workload,
        k: int,
        scope: Callable[[], ContextManager[Any]] = contextlib.nullcontext,
    ) -> Tuple[Optional[float], Optional[Check]]:
        """Run op ``k`` inside ``scope``, then check its output outside.

        A failure is counted and swallowed, so the run continues.
        """
        self.attempted += 1
        try:
            with scope():
                start = time.perf_counter()
                out = wl.op(k)
                latency = time.perf_counter() - start
            check = wl.check(out)
        except Exception:
            traceback.print_exc(file=sys.stderr)
            self.failed += 1
            return None, None
        if not check.ok:
            print(f"op {k}: output check failed (error {check.error})", file=sys.stderr)
            self.failed += 1
        return latency, check

    def record(self, check: Optional[Check]) -> None:
        if check is not None:
            self.digests.append(check.digest)
            if check.error is not None:
                self.errors.append(check.error)

    def summary(self) -> Dict[str, Any]:
        worst = max(self.errors) if self.errors else None
        return {
            "attempted": self.attempted,
            "failed": self.failed,
            "failed_frac": self.failed / self.attempted if self.attempted else 1.0,
            "max_error": worst,
            "precision_bits": -math.log2(worst) if worst else None,
            "digests": self.digests,
        }


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def run_untraced(cls: type, seed: int, seconds: float) -> Dict[str, Any]:
    """Set up ``cls.setups`` times, warm up, then time closed-loop ops."""
    setup_times = []
    for _ in range(cls.setups):
        wl = None  # drop the previous set-up before building the next
        start = time.perf_counter()
        wl = cls(seed)
        setup_times.append(time.perf_counter() - start)
    tally = Tally()
    for k in range(cls.warmup):
        tally.attempt(wl, k)
    latencies: List[float] = []
    k = cls.warmup
    start = time.perf_counter()
    while k - cls.warmup < cls.min_ops or time.perf_counter() - start < seconds:
        latency, check = tally.attempt(wl, k)
        tally.record(check)
        if latency is not None:
            latencies.append(latency)
        k += 1
    tail_pct, tail_value = tail(latencies)
    result = tally.summary()
    result.update(
        setup_times=setup_times,
        latencies=latencies,
        tail_pct=tail_pct,
        metrics={
            "setup_s": statistics.median(setup_times),
            "latency_p50_s": statistics.median(latencies) if latencies else None,
            "latency_tail_s": tail_value,
            "peak_rss_mb": peak_rss_mb(),
        },
    )
    return result


def run_traced(
    cls: type, seed: int, names: List[str], trace_path: Optional[str]
) -> Dict[str, Any]:
    """Traced set-up, warm-up, then untraced/traced pairs of the same op.

    Both halves of a pair run op ``k`` on the same inputs and randomness,
    so their outputs must hash the same; that, the self-time sums and the
    coverage floor are checked per op and counted as failures if broken.
    """
    tracer = Tracer()
    with tracer.tracing("setup"):
        wl = cls(seed)
    tally = Tally()
    for k in range(cls.trace_warmup):
        tally.attempt(wl, k)
    untraced: List[float] = []
    traced_ops: List[str] = []
    k = cls.trace_warmup
    for _ in range(cls.trace_pairs):
        latency, plain = tally.attempt(wl, k)
        if latency is not None:
            untraced.append(latency)
        op_id = f"op{k}"
        _, check = tally.attempt(wl, k, lambda: tracer.tracing(op_id))
        tally.record(check)
        traced_ops.append(op_id)
        if plain is not None and check is not None and plain.digest != check.digest:
            print(f"op {k}: traced output differs from untraced", file=sys.stderr)
            tally.failed += 1
        k += 1
    per_op = tracer.per_op()
    rows = [per_op[op] for op in traced_ops]
    for op, row in zip(traced_ops, rows):
        residual, covered = self_time_residual(row), coverage(row)
        if residual > RESIDUAL_TOLERANCE or covered < MIN_COVERAGE:
            print(
                f"{op}: self-time residual {residual:.4f}, coverage {covered:.3f}",
                file=sys.stderr,
            )
            tally.failed += 1
    metrics = layer_metrics(rows, per_op["setup"], names)
    walls = [row["wall_s"] for row in rows]
    summary = tally.summary()
    metrics["trace.overhead_frac"] = (
        statistics.median(walls) / statistics.median(untraced) - 1.0
        if untraced else 0.0
    )
    metrics["trace.coverage_frac"] = statistics.median(coverage(r) for r in rows)
    metrics["output.precision_bits"] = summary["precision_bits"] or 0.0
    if trace_path:
        tracer.dump(trace_path, {"workload": cls.name, "seed": seed, "ops": traced_ops})
    summary.update(metrics={name: metrics[name] for name in names})
    return summary


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--layer-metrics", default="", help="comma-separated names")
    parser.add_argument("--trace-out", default=None)
    parser.add_argument("--result", required=True)
    args = parser.parse_args(argv)
    cls = WORKLOADS[args.workload]
    if args.trace:
        names = [n for n in args.layer_metrics.split(",") if n]
        result = run_traced(cls, args.seed, names, args.trace_out)
    else:
        result = run_untraced(cls, args.seed, args.seconds)
    result.update(workload=args.workload, seed=args.seed, trace=args.trace)
    with open(args.result, "w") as fh:
        json.dump(result, fh, indent=1)
    return 0


if __name__ == "__main__":
    sys.exit(main())
