"""Run the repository benchmark: end-to-end or per-layer metrics.

From the repository root::

    python bench/run.py [--workload W | --workloads a,b] [--seed S]
                        [--seconds T] [--trace [0|1]] [--out DIR]

Each workload runs in a fresh single-threaded ``python`` process built
from ``src/`` in this checkout (``PYTHONHASHSEED`` fixed), one after
another.  The run prints every metric as ``workload metric value unit``,
writes ``results.json`` (``results-trace.json`` and ``trace-<workload>.json``
with ``--trace``) to ``--out``, and ends with one JSON line::

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

With several workloads the metric keys are ``<workload>/<metric>``.  It
exits non-zero if any output check failed or a workload crashed.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
from pathlib import Path
from typing import Any, Dict, List, Optional

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SPEC_PATH = ROOT / "BENCHMARK.json"
#: Each workload process must finish within this many seconds.
WORKLOAD_TIMEOUT_S = 175


def load_spec() -> Dict[str, Any]:
    with open(SPEC_PATH) as fh:
        spec: Dict[str, Any] = json.load(fh)
    return spec


def child_env() -> Dict[str, str]:
    env = dict(os.environ)
    env.update(
        PYTHONPATH=str(ROOT / "src"),
        PYTHONHASHSEED="0",
        OMP_NUM_THREADS="1",
        OPENBLAS_NUM_THREADS="1",
        MKL_NUM_THREADS="1",
    )
    return env


def run_workload(
    name: str, seed: int, seconds: float, trace: int, out: Path, layer_names: List[str]
) -> Optional[Dict[str, Any]]:
    """Run one workload in a fresh process; ``None`` if it crashed."""
    result_path = out / f".{name}-{'trace' if trace else 'e2e'}.json"
    result_path.unlink(missing_ok=True)
    cmd = [
        sys.executable, str(BENCH / "worker.py"),
        "--workload", name,
        "--seed", str(seed),
        "--seconds", str(seconds),
        "--trace", str(trace),
        "--result", str(result_path),
    ]
    if trace:
        cmd += [
            "--layer-metrics", ",".join(layer_names),
            "--trace-out", str(out / f"trace-{name}.json"),
        ]
    try:
        proc = subprocess.run(
            cmd, env=child_env(), cwd=ROOT, stdout=sys.stderr,
            timeout=WORKLOAD_TIMEOUT_S, check=False,
        )
    except subprocess.TimeoutExpired:
        print(f"{name}: timed out after {WORKLOAD_TIMEOUT_S} s", file=sys.stderr)
        return None
    if proc.returncode != 0 or not result_path.exists():
        print(f"{name}: worker exited with {proc.returncode}", file=sys.stderr)
        return None
    with open(result_path) as fh:
        result: Dict[str, Any] = json.load(fh)
    result_path.unlink()
    return result


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter
    )
    parser.add_argument("--workload", action="append", default=[],
                        help="workload to run (repeatable)")
    parser.add_argument("--workloads", default="",
                        help="comma-separated workloads (default: all)")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=None,
                        help="timed-loop length (default: BENCHMARK.json run_seconds)")
    parser.add_argument("--trace", type=int, nargs="?", const=1, default=0,
                        choices=(0, 1), help="per-layer traced run")
    parser.add_argument("--out", default=str(ROOT / "bench-out" / "e2e"))
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"no repro sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    spec = load_spec()
    known = [w["name"] for w in spec["workloads"]]
    names = args.workload + [w for w in args.workloads.split(",") if w] or known
    unknown = sorted(set(names) - set(known))
    if unknown:
        parser.error(f"unknown workloads {unknown}; known: {known}")
    seconds = spec["run_seconds"] if args.seconds is None else args.seconds
    listed = spec["per_layer"] if args.trace else spec["end_to_end"]
    units = {m["name"]: m["unit"] for m in listed}
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)

    results: Dict[str, Any] = {}
    ok = True
    attempted = failed = 0
    metrics: Dict[str, Dict[str, Any]] = {}
    for name in names:
        result = run_workload(name, args.seed, seconds, args.trace, out, list(units))
        if result is None:
            ok = False
            continue
        results[name] = result
        attempted += result["attempted"]
        failed += result["failed"]
        for metric, unit in units.items():
            value = result["metrics"].get(metric)
            print(f"{name} {metric} {value} {unit}")
            key = metric if len(names) == 1 else f"{name}/{metric}"
            metrics[key] = {"value": value, "unit": unit}
    report = {"seed": args.seed, "seconds": seconds, "trace": args.trace,
              "workloads": results}
    target = out / ("results-trace.json" if args.trace else "results.json")
    with open(target, "w") as fh:
        json.dump(report, fh, indent=1)
    if not ok:
        return 1
    correct = failed == 0 and all(
        m["value"] is not None for m in metrics.values()
    )
    print(json.dumps({"correct": correct, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
