"""Record the sweep engine's parallel wall-clock speedup (report-only).

Runs the Table 5 search grid serially and with ``--jobs`` worker
processes, checks the outputs are bit-identical, and writes an honest
measurement to ``benchmarks/baselines/sweep_speedup.json``:

    PYTHONPATH=src python benchmarks/record_sweep_speedup.py --jobs 4

Wall-clock is machine-dependent, so this fixture is *never* gated — it
exists so the repo carries a provenance-stamped data point for the
"NX speedup at N workers" claim, including the core count it was
measured on.  A single-core container cannot exhibit parallel speedup;
the committed fixture says so rather than faking one, and CI (4-vCPU
runners) regenerates and uploads the real number on every push.
"""

from __future__ import annotations

import argparse
import os
import time
from pathlib import Path

from repro.obs import schema
from repro.sweep import SWEEP_SPEEDUP, build_preset, run_sweep

DEFAULT_OUT = Path(__file__).parent / "baselines" / "sweep_speedup.json"


def measure(quick: bool, jobs: int) -> dict:
    spec = build_preset("table5", quick=quick)
    started = time.perf_counter()
    serial = run_sweep(spec, jobs=1)
    serial_seconds = time.perf_counter() - started
    started = time.perf_counter()
    parallel = run_sweep(spec, jobs=jobs)
    parallel_seconds = time.perf_counter() - started
    if serial.point_keys != parallel.point_keys or [
        r for r in serial.rows
    ] != [r for r in parallel.rows]:
        raise SystemExit("parallel sweep diverged from serial: refusing to record")
    return {
        "schema": SWEEP_SPEEDUP.id,
        "sweep": spec.name,
        "points": spec.size,
        "quick": quick,
        "jobs": jobs,
        "cpu_cores": os.cpu_count(),
        "serial_seconds": round(serial_seconds, 4),
        "parallel_seconds": round(parallel_seconds, 4),
        "speedup": round(serial_seconds / parallel_seconds, 3),
        "bit_identical": True,
        "note": (
            "report-only wall-clock fixture; speedup is meaningful only "
            "when cpu_cores >= jobs"
        ),
    }


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--jobs", type=int, default=4)
    parser.add_argument("--quick", action="store_true")
    parser.add_argument("--out", default=str(DEFAULT_OUT))
    args = parser.parse_args()
    record = measure(args.quick, args.jobs)
    schema.write(record, SWEEP_SPEEDUP, args.out)
    print(
        f"{record['sweep']}: {record['points']} points, "
        f"serial {record['serial_seconds']}s vs jobs={record['jobs']} "
        f"{record['parallel_seconds']}s -> {record['speedup']}x "
        f"on {record['cpu_cores']} cores (wrote {args.out})"
    )
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
