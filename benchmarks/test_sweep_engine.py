"""Sweep-engine benchmarks: serial/parallel parity and wall-clock speedup.

The engine's determinism contract says the merged output is a pure
function of the spec — worker count, chunking and scheduling order must
be invisible.  Parity is asserted on every run; the speedup assertion
(>2x at 4 workers, the PR's acceptance bar) only runs where it is
physically possible, i.e. on hosts with at least 4 CPU cores — a
single-core container cannot exhibit parallel speedup and skipping
there is the honest outcome (``benchmarks/record_sweep_speedup.py``
records the measured number either way).
"""

import os
import time

import pytest

from repro.obs.telemetry import strip_volatile
from repro.sweep import build_preset, build_sweep_report, run_sweep


@pytest.mark.repro("Sweep: parallel parity")
def test_parallel_parity(benchmark):
    spec = build_preset("table5", quick=True)
    serial = run_sweep(spec, jobs=1)

    def parallel():
        return run_sweep(spec, jobs=4)

    outcome = benchmark(parallel)
    # Bit-identical merged output: values, rows and canonical point keys.
    assert outcome.values == serial.values
    assert outcome.rows == serial.rows
    assert outcome.point_keys == serial.point_keys
    # ...and so are the persisted reports, minus the scheduling fields.
    assert strip_volatile(build_sweep_report(outcome)) == strip_volatile(
        build_sweep_report(serial)
    )
    benchmark.extra_info["points"] = spec.size
    benchmark.extra_info["chunks"] = outcome.chunks


@pytest.mark.repro("Sweep: memoization")
def test_memo_reuse(benchmark):
    # The memsim ladder re-builds one schedule set per (params, config)
    # rung across its primitives: the per-worker memo must serve repeats.
    spec = build_preset("memsim-ladder", quick=True)
    outcome = benchmark(lambda: run_sweep(spec, jobs=1))
    assert outcome.memo_hits > 0
    assert outcome.memo_hits + outcome.memo_misses >= spec.size
    benchmark.extra_info["memo_hit_rate"] = round(outcome.memo_hit_rate, 3)


@pytest.mark.repro("Sweep: memoization")
def test_table5_memo_misses_once_per_cost_shape():
    # The 5,513 candidates share 577 cost shapes, enumerated shape-major:
    # serial evaluates each shape once, and a worker re-derives a shape
    # at most once per chunk that starts inside it.
    spec = build_preset("table5")
    serial = run_sweep(spec, jobs=1)
    assert (serial.memo_misses, serial.memo_hits) == (577, 5513 - 577)
    parallel = run_sweep(spec, jobs=2)
    assert parallel.values == serial.values
    assert 577 <= parallel.memo_misses <= 577 + parallel.chunks


@pytest.mark.skipif(
    (os.cpu_count() or 1) < 4,
    reason="parallel speedup needs >= 4 CPU cores",
)
@pytest.mark.repro("Sweep: parallel speedup")
def test_parallel_speedup():
    spec = build_preset("table5")  # full grid: enough work to amortise forks
    started = time.perf_counter()
    serial = run_sweep(spec, jobs=1)
    serial_seconds = time.perf_counter() - started
    started = time.perf_counter()
    parallel = run_sweep(spec, jobs=4)
    parallel_seconds = time.perf_counter() - started
    assert parallel.values == serial.values
    speedup = serial_seconds / parallel_seconds
    print(
        f"\nsweep speedup: {spec.size} points, serial {serial_seconds:.2f}s "
        f"vs 4 workers {parallel_seconds:.2f}s -> {speedup:.2f}x"
    )
    assert speedup > 2.0
