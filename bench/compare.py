"""Compare two sets of benchmark runs against ``BENCHMARK.json`` bounds.

    python bench/compare.py A B

``A`` (the baseline) and ``B`` are each a ``results.json`` file or a
directory searched recursively for them; every file is one run.  One row
is printed per (workload, metric) with each side's median and quartiles
and a verdict:

* ``worse``      -- B's median is worse than A's by more than the bound;
* ``better``     -- better by more than the bound;
* ``same``       -- within the bound, with both spreads inside it;
* ``unresolved`` -- a side's quartile spread is wider than the bound, so
  no verdict is possible (unless every run of B beats every run of A).

Besides the bounded metrics, a higher ``failed_frac`` or a
``precision_bits`` drop of more than ``PRECISION_BOUND_BITS`` is a
regression.  Exits 1 on any regression, else 0.
"""

from __future__ import annotations

import argparse
import json
import sys
from collections import defaultdict
from pathlib import Path
from typing import Dict, List, Optional, Sequence, Tuple

from stats import quartiles

SPEC_PATH = Path(__file__).resolve().parent.parent / "BENCHMARK.json"
PRECISION_BOUND_BITS = 0.2

Runs = Dict[Tuple[str, str], List[float]]


def load_runs(path: Path) -> Runs:
    """``(workload, metric) -> values`` over every results.json under ``path``."""
    files = [path] if path.is_file() else sorted(path.rglob("results.json"))
    if not files:
        raise SystemExit(f"no results.json under {path}")
    runs: Runs = defaultdict(list)
    for file in files:
        with open(file) as fh:
            report = json.load(fh)
        for workload, result in report["workloads"].items():
            for metric, value in result["metrics"].items():
                if value is not None:
                    runs[(workload, metric)].append(float(value))
            runs[(workload, "failed_frac")].append(float(result["failed_frac"]))
            if result.get("precision_bits") is not None:
                runs[(workload, "precision_bits")].append(float(result["precision_bits"]))
    return runs


def verdict(a: Sequence[float], b: Sequence[float], bound: float, lower_better: bool) -> str:
    """Classify B against A for a metric whose bound is a share of A's median."""
    qa, qb = quartiles(a), quartiles(b)
    sign = 1.0 if lower_better else -1.0
    change = sign * (qb[1] - qa[1]) / abs(qa[1]) if qa[1] else 0.0
    spread = max((q[2] - q[0]) / abs(q[1]) if q[1] else 0.0 for q in (qa, qb))
    b_always_better = all(sign * (y - x) < 0 for x in a for y in b)
    if spread > bound:
        return "better" if b_always_better else "unresolved"
    if change > bound:
        return "worse"
    if change < -bound:
        return "better"
    return "same"


def compare(a: Runs, b: Runs, spec: dict) -> Tuple[List[str], bool]:
    """Rendered rows and whether any regression was found."""
    bounded = {m["name"]: m for m in spec["end_to_end"]}
    rows, regressed = [], False
    workloads = sorted({w for w, _ in a} & {w for w, _ in b})
    for workload in workloads:
        for metric in list(bounded) + ["failed_frac", "precision_bits"]:
            key = (workload, metric)
            if key not in a or key not in b:
                continue
            qa, qb = quartiles(a[key]), quartiles(b[key])
            if metric in bounded:
                m = bounded[metric]
                status = verdict(a[key], b[key], m["bound"], m["better"] == "lower")
            elif metric == "failed_frac":
                status = "worse" if qb[1] > qa[1] or max(b[key]) > max(a[key]) else "same"
            else:
                status = "worse" if qb[1] < qa[1] - PRECISION_BOUND_BITS else "same"
            regressed |= status == "worse"
            rows.append(
                f"{workload:14} {metric:15} "
                f"A {qa[1]:.6g} [{qa[0]:.6g}, {qa[2]:.6g}] n={len(a[key])}  "
                f"B {qb[1]:.6g} [{qb[0]:.6g}, {qb[2]:.6g}] n={len(b[key])}  {status}"
            )
    return rows, regressed


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter
    )
    parser.add_argument("a", type=Path, help="baseline runs")
    parser.add_argument("b", type=Path, help="candidate runs")
    args = parser.parse_args(argv)
    with open(SPEC_PATH) as fh:
        spec = json.load(fh)
    rows, regressed = compare(load_runs(args.a), load_runs(args.b), spec)
    print("\n".join(rows))
    return 1 if regressed else 0


if __name__ == "__main__":
    sys.exit(main())
