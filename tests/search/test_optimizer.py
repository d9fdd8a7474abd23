import random

import pytest

from repro.params import BASELINE_JUNG, MAD_OPTIMAL
from repro.perf import MADConfig
from repro.hardware import GPU_JUNG, PRIOR_DESIGNS, mad_counterpart
from repro.search import find_optimal_parameters, params_key, ranking_key


def _small_grid():
    """16 candidates: two of each of log q, L, dnum and fftIter."""
    from repro.search import enumerate_parameter_space

    return list(
        enumerate_parameter_space(
            log_q_choices=(50, 54),
            max_limbs_choices=(35, 40),
            dnum_choices=(2, 3),
            fft_iter_choices=(3, 6),
        )
    )


@pytest.fixture(scope="module")
def gpu_results():
    """Search over a focused grid around the paper's Table 5 sets."""
    from repro.search import enumerate_parameter_space

    candidates = list(
        enumerate_parameter_space(
            log_q_choices=(50, 54, 58),
            max_limbs_choices=(30, 35, 40),
            dnum_choices=(1, 2, 3, 4),
            fft_iter_choices=(3, 6),
        )
    )
    return find_optimal_parameters(
        mad_counterpart(GPU_JUNG), candidates=candidates, top=len(candidates)
    )


class TestOptimizer:
    def test_results_sorted_by_throughput(self, gpu_results):
        throughputs = [r.throughput for r in gpu_results]
        assert throughputs == sorted(throughputs, reverse=True)

    def test_optimum_prefers_small_dnum(self, gpu_results):
        """Table 5: the memory-aware optimum uses dnum=2 (vs baseline 3)."""
        assert gpu_results[0].params.dnum <= 2

    def test_optimum_beats_baseline_parameters(self, gpu_results):
        by_params = {r.params: r for r in gpu_results}
        best = gpu_results[0]
        baseline = by_params[BASELINE_JUNG]
        assert best.throughput > baseline.throughput

    def test_paper_optimum_ranks_above_baseline(self, gpu_results):
        by_params = {r.params: r for r in gpu_results}
        assert (
            by_params[MAD_OPTIMAL].throughput
            > by_params[BASELINE_JUNG].throughput
        )

    def test_top_limits_results(self):
        from repro.search import enumerate_parameter_space

        candidates = list(
            enumerate_parameter_space(
                log_q_choices=(50,),
                max_limbs_choices=(35, 40),
                dnum_choices=(2, 3),
                fft_iter_choices=(3, 6),
            )
        )
        results = find_optimal_parameters(
            mad_counterpart(GPU_JUNG), candidates=candidates, top=3
        )
        assert len(results) == 3

    def test_top_above_the_candidate_count_returns_every_candidate(self):
        candidates = _small_grid()
        results = find_optimal_parameters(
            mad_counterpart(GPU_JUNG), candidates=candidates, top=100
        )
        assert sorted(params_key(r.params) for r in results) == sorted(
            params_key(p) for p in candidates
        )

    def test_describe_mentions_bound(self, gpu_results):
        text = gpu_results[0].describe()
        assert "bound" in text and "throughput" in text

    def test_runtime_positive(self, gpu_results):
        for result in gpu_results:
            assert result.runtime.seconds > 0
            assert result.cost.ops.total > 0


class TestRankingDeterminism:
    """The bugfix: ranking used throughput alone, so equal-throughput
    candidates ranked in enumeration order.  ranking_key is a documented
    total order."""

    def test_params_key_is_a_total_order(self):
        candidates = _small_grid()
        keys = [params_key(p) for p in candidates]
        assert len(set(keys)) == len(keys)

    def test_ranking_is_invariant_under_enumeration_order(self):
        candidates = _small_grid()
        forward = find_optimal_parameters(
            mad_counterpart(GPU_JUNG), candidates=candidates, top=len(candidates)
        )
        backward = find_optimal_parameters(
            mad_counterpart(GPU_JUNG),
            candidates=list(reversed(candidates)),
            top=len(candidates),
        )
        assert forward == backward

    def test_tie_break_orders_equal_throughput_runtime(self):
        """Synthetic exact ties must fall back to the canonical params key."""
        import dataclasses

        design = mad_counterpart(GPU_JUNG)
        base = find_optimal_parameters(
            design, candidates=[BASELINE_JUNG], top=1
        )[0]
        clone_params = dataclasses.replace(BASELINE_JUNG, fft_iter=4)
        clone = dataclasses.replace(base, params=clone_params)
        assert ranking_key(clone) != ranking_key(base)
        ordered = sorted([clone, base], key=ranking_key)
        assert ordered == sorted([base, clone], key=ranking_key)
        assert ordered[0].params.fft_iter < ordered[1].params.fft_iter

    @pytest.mark.parametrize("design_name", ["GPU [Jung et al.]", "BTS", "ARK"])
    def test_shuffled_candidates_rank_the_same(self, design_name):
        """The benchmark's search workload shuffles the candidates with its
        seed and checks a golden top 10: any order must give one ranking."""
        candidates = _small_grid()
        design = mad_counterpart(PRIOR_DESIGNS[design_name])
        reference = find_optimal_parameters(
            design, candidates=candidates, top=len(candidates)
        )
        for seed in range(4):
            shuffled = list(candidates)
            random.Random(seed).shuffle(shuffled)
            assert shuffled != candidates
            assert (
                find_optimal_parameters(
                    design, candidates=shuffled, top=len(candidates)
                )
                == reference
            )


class TestArguments:
    """Bad arguments fail with a named error instead of a silent slice."""

    @pytest.mark.parametrize("top", [0, -1])
    def test_top_below_one_raises(self, top):
        with pytest.raises(ValueError, match="top must be >= 1"):
            find_optimal_parameters(
                mad_counterpart(GPU_JUNG), candidates=_small_grid(), top=top
            )

    @pytest.mark.parametrize("jobs", [0, 2])
    def test_jobs_other_than_one_names_the_retired_pool(self, jobs):
        with pytest.raises(ValueError, match="process pool is retired"):
            find_optimal_parameters(
                mad_counterpart(GPU_JUNG), candidates=_small_grid(), jobs=jobs
            )

    def test_jobs_one_still_ranks(self):
        # The call the benchmark's search workload makes.
        candidates = _small_grid()
        design = mad_counterpart(GPU_JUNG)
        ranked = find_optimal_parameters(
            design, MADConfig.all(), candidates=candidates, jobs=1
        )
        assert ranked == find_optimal_parameters(design, candidates=candidates)
        assert len(ranked) == 10


class TestCandidateMaterialisation:
    """The bugfix: a generator passed as ``candidates`` was silently
    exhausted by the first pass; it must be materialised exactly once."""

    def test_generator_candidates_fully_evaluated(self):
        from repro.search import enumerate_parameter_space

        as_list = list(
            enumerate_parameter_space(
                log_q_choices=(50,),
                max_limbs_choices=(35, 40),
                dnum_choices=(2, 3),
                fft_iter_choices=(3, 6),
            )
        )
        as_generator = enumerate_parameter_space(
            log_q_choices=(50,),
            max_limbs_choices=(35, 40),
            dnum_choices=(2, 3),
            fft_iter_choices=(3, 6),
        )
        design = mad_counterpart(GPU_JUNG)
        from_generator = find_optimal_parameters(
            design, candidates=as_generator, top=len(as_list)
        )
        from_list = find_optimal_parameters(
            design, candidates=as_list, top=len(as_list)
        )
        assert len(from_generator) == len(as_list)
        assert from_generator == from_list

    def test_empty_candidates_return_empty(self):
        assert find_optimal_parameters(
            mad_counterpart(GPU_JUNG), candidates=iter(())
        ) == []
