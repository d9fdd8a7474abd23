"""Sweep-engine benchmarks: the memo across a whole run.

Every sweep evaluates its points in one process against one memo, so
each distinct sub-evaluation is computed exactly once per run, and each
bootstrap level once per run through the memo's level-cost table.
"""

import pytest

from repro.sweep import build_preset, run_sweep
from repro.sweep.memo import Memo


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


@pytest.mark.repro("Sweep: memoization")
def test_each_search_fills_its_own_level_table(monkeypatch):
    # The level-cost table lives on the run's memo and goes with it: a
    # second search in the same process prices every level afresh.
    import repro.sweep.engine as engine
    from repro.hardware import PRIOR_DESIGNS, mad_counterpart
    from repro.search import find_optimal_parameters

    memos = []

    class RecordedMemo(Memo):
        def __init__(self) -> None:
            super().__init__()
            memos.append(self)

    monkeypatch.setattr(engine, "Memo", RecordedMemo)
    design = mad_counterpart(PRIOR_DESIGNS["GPU [Jung et al.]"])
    first = find_optimal_parameters(design)
    second = find_optimal_parameters(design)
    # 703 levels each of mult, pt_mult and add, and 927 of PtMatVecMult
    # units, which every diagonal count at that level shares.
    assert [len(m.level_costs) for m in memos] == [3036, 3036]
    assert memos[0].level_costs is not memos[1].level_costs
    assert second == first


@pytest.mark.repro("Sweep: memoization")
def test_table5_costs_equal_table_free_models():
    # One candidate of each cost shape: the sweep's cost (priced through
    # the run's level table) equals a model priced without one.
    from repro.perf import BootstrapModel, cost_shape

    spec = build_preset("table5")
    config = spec.context["config"]
    outcome = run_sweep(spec)
    first_of_shape = {}
    for result in outcome.values:
        first_of_shape.setdefault(cost_shape(result.params), result)
    assert len(first_of_shape) == 577
    for result in first_of_shape.values():
        assert result.cost == BootstrapModel(result.params, config).total_cost()


def test_table_free_model_counts_its_evaluations_every_time():
    # Only a sweep hands a model a level table: a model priced twice
    # evaluates, and counts, every primitive both times (the case of
    # tests/obs/test_export.py's traced_bootstrap fixture).
    from repro.obs import state
    from repro.params import BASELINE_JUNG
    from repro.perf import BootstrapModel, MADConfig

    model = BootstrapModel(BASELINE_JUNG, MADConfig.none())
    counts = []
    for _ in range(2):
        with state.capture() as (_, registry):
            model.ledger()
        counts.append(
            {
                name: value
                for name, value in registry.counters().items()
                if name.startswith("perf.primitives.")
            }
        )
    assert counts[0]["perf.primitives.mult"] == BASELINE_JUNG.eval_mod_depth
    assert counts[1] == counts[0]
