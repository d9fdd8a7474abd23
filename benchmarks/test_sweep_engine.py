"""Sweep-engine benchmarks: the memo across a whole run.

Every sweep evaluates its points in one process against one memo, so
each distinct sub-evaluation is computed exactly once per run.
"""

import pytest

from repro.sweep import build_preset, run_sweep


@pytest.mark.repro("Sweep: memoization")
def test_memo_reuse(benchmark):
    # The memsim ladder re-builds one schedule set per (params, config)
    # rung across its primitives: the run's memo must serve repeats.
    spec = build_preset("memsim-ladder", quick=True)
    outcome = benchmark(lambda: run_sweep(spec))
    assert outcome.memo_hits > 0
    assert outcome.memo_hits + outcome.memo_misses >= spec.size
    benchmark.extra_info["memo_hit_rate"] = round(outcome.memo_hit_rate, 3)


@pytest.mark.repro("Sweep: memoization")
def test_table5_memo_misses_once_per_cost_shape():
    # The 5,513 candidates share 577 cost shapes: the run evaluates each
    # shape once.
    spec = build_preset("table5")
    outcome = run_sweep(spec)
    assert (outcome.memo_misses, outcome.memo_hits) == (577, 5513 - 577)
