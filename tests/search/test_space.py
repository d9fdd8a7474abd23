from hypothesis import given, settings
from hypothesis import strategies as st

from repro.params import BASELINE_JUNG, MAD_OPTIMAL, CkksParams
from repro.perf import cost_shape
from repro.search import enumerate_parameter_space


class TestParameterSpace:
    def test_all_candidates_secure_and_bootstrappable(self):
        for params in enumerate_parameter_space(
            log_q_choices=(50, 54),
            max_limbs_choices=(35, 40),
            dnum_choices=(2, 3),
            fft_iter_choices=(3, 6),
        ):
            assert params.is_128_bit_secure()
            assert params.supports_bootstrapping()
            assert params.log_q1 >= 400

    def test_paper_optimum_is_in_the_space(self):
        candidates = list(
            enumerate_parameter_space(
                log_q_choices=(50,),
                max_limbs_choices=(40,),
                dnum_choices=(2,),
                fft_iter_choices=(6,),
            )
        )
        assert MAD_OPTIMAL in candidates

    def test_baseline_is_in_the_space(self):
        candidates = list(
            enumerate_parameter_space(
                log_q_choices=(54,),
                max_limbs_choices=(35,),
                dnum_choices=(3,),
                fft_iter_choices=(3,),
            )
        )
        assert BASELINE_JUNG in candidates

    def test_insecure_combinations_pruned(self):
        # 60-bit limbs at L=45 with dnum=1 exceed the security bound.
        candidates = list(
            enumerate_parameter_space(
                log_q_choices=(60,),
                max_limbs_choices=(45,),
                dnum_choices=(1,),
                fft_iter_choices=(3,),
            )
        )
        assert candidates == []

    def test_min_log_q1_prunes_shallow_sets(self):
        candidates = list(
            enumerate_parameter_space(
                log_q_choices=(50,),
                max_limbs_choices=(24,),
                dnum_choices=(3,),
                fft_iter_choices=(3, 6),
                min_log_q1=400,
            )
        )
        # L=24 with fftIter=6 leaves 3 limbs = 150 bits < 400: pruned.
        assert all(p.fft_iter == 3 for p in candidates)

    def test_space_is_reasonably_small(self):
        """Security pruning keeps brute force tractable (paper: minutes)."""
        count = sum(1 for _ in enumerate_parameter_space())
        assert 0 < count < 10_000


#: Random sub-grids of the real enumeration ranges.
_GRIDS = st.fixed_dictionaries(
    {
        "log_q_choices": st.lists(
            st.sampled_from(range(40, 61, 2)), min_size=1, max_size=3, unique=True
        ),
        "max_limbs_choices": st.lists(
            st.sampled_from(range(24, 46)), min_size=1, max_size=3, unique=True
        ),
        "dnum_choices": st.lists(
            st.sampled_from((1, 2, 3, 4, 5, 6)), min_size=1, max_size=3, unique=True
        ),
        "fft_iter_choices": st.lists(
            st.sampled_from((2, 3, 4, 6, 8)), min_size=1, max_size=3, unique=True
        ),
        "min_log_q1": st.sampled_from((0, 200, 400)),
        "require_security": st.booleans(),
    }
)


class TestSpaceProperties:
    """Property-based guarantees the sweep engine's determinism contract
    leans on: the candidate axis must be deterministic and duplicate-free,
    and every yielded set must satisfy the admissibility constraints."""

    @settings(max_examples=40, deadline=None)
    @given(grid=_GRIDS)
    def test_enumeration_deterministic_and_duplicate_free(self, grid):
        first = list(enumerate_parameter_space(**grid))
        second = list(enumerate_parameter_space(**grid))
        assert first == second
        assert len(set(first)) == len(first)

    @settings(max_examples=40, deadline=None)
    @given(grid=_GRIDS)
    def test_every_candidate_satisfies_the_constraints(self, grid):
        for params in enumerate_parameter_space(**grid):
            assert params.log_q in grid["log_q_choices"]
            assert params.max_limbs in grid["max_limbs_choices"]
            assert params.dnum in grid["dnum_choices"]
            assert params.fft_iter in grid["fft_iter_choices"]
            assert params.dnum <= params.max_limbs + 1
            assert params.supports_bootstrapping()
            assert params.log_q1 >= grid["min_log_q1"]
            if grid["require_security"]:
                assert params.is_128_bit_secure()

    @settings(max_examples=20, deadline=None)
    @given(grid=_GRIDS)
    def test_candidates_follow_grid_nesting_order(self, grid):
        """Yield order is the declared nesting (L, dnum, fftIter, log_q).

        Neither the search ranking (``ranking_key`` is a total order) nor
        the sweep's memo misses (one memo per run) rely on it; the order
        is the documented enumeration contract.
        """
        order = {
            (p.max_limbs, p.dnum, p.fft_iter, p.log_q): i
            for i, p in enumerate(enumerate_parameter_space(**grid))
        }
        expected = sorted(
            order,
            key=lambda key: (
                grid["max_limbs_choices"].index(key[0]),
                grid["dnum_choices"].index(key[1]),
                grid["fft_iter_choices"].index(key[2]),
                grid["log_q_choices"].index(key[3]),
            ),
        )
        assert [order[key] for key in expected] == list(range(len(order)))

    @settings(max_examples=40, deadline=None)
    @given(grid=_GRIDS)
    def test_candidates_sharing_a_cost_shape_are_contiguous(self, grid):
        positions = {}
        for i, params in enumerate(enumerate_parameter_space(**grid)):
            positions.setdefault(cost_shape(params), []).append(i)
        for indices in positions.values():
            assert indices == list(range(indices[0], indices[0] + len(indices)))

    def test_full_grid_has_577_cost_shapes(self):
        candidates = list(enumerate_parameter_space())
        assert len(candidates) == 5513
        assert len({cost_shape(p) for p in candidates}) == 577


def _brute_force(
    log_n,
    log_q_choices,
    max_limbs_choices,
    dnum_choices,
    fft_iter_choices,
    min_log_q1,
    require_security,
):
    """Every grid point built and checked, in the enumeration's nesting
    order: the reference the pruned enumeration must equal."""
    kept = []
    for max_limbs in max_limbs_choices:
        for dnum in dnum_choices:
            if dnum > max_limbs + 1:
                continue
            for fft_iter in fft_iter_choices:
                for log_q in log_q_choices:
                    try:
                        params = CkksParams(
                            log_n=log_n,
                            log_q=log_q,
                            max_limbs=max_limbs,
                            dnum=dnum,
                            fft_iter=fft_iter,
                        )
                    except ValueError:
                        continue
                    if (
                        params.supports_bootstrapping()
                        and params.log_q1 >= min_log_q1
                        and (not require_security or params.is_128_bit_secure())
                    ):
                        kept.append(params)
    return kept


def _shuffled(values, **kwargs):
    """Unsorted tuples of distinct ``values``."""
    return st.lists(st.sampled_from(values), unique=True, **kwargs).map(tuple)


class TestPruning:
    """The enumeration skips, unbuilt, every candidate whose rejection
    follows from one already seen; what it yields is unchanged."""

    @settings(max_examples=60, deadline=None)
    @given(
        grid=st.fixed_dictionaries(
            {
                "log_n": st.sampled_from((13, 14, 15, 16, 17)),
                "log_q_choices": _shuffled(range(20, 65), min_size=1, max_size=8),
                "max_limbs_choices": _shuffled(range(1, 50), min_size=1, max_size=6),
                "dnum_choices": _shuffled(range(1, 9), min_size=1, max_size=4),
                "fft_iter_choices": _shuffled(range(1, 9), min_size=1, max_size=4),
                "min_log_q1": st.sampled_from((0, 200, 400, 800)),
                "require_security": st.booleans(),
            }
        )
    )
    def test_equals_brute_force_in_order(self, grid):
        assert list(enumerate_parameter_space(**grid)) == _brute_force(**grid)

    def test_full_grid_builds_few_rejected_candidates(self, monkeypatch):
        built = []
        real = CkksParams.__post_init__

        def counted(params):
            built.append(params)
            real(params)

        monkeypatch.setattr(CkksParams, "__post_init__", counted)
        kept = list(enumerate_parameter_space())
        # Building every grid point would be 22 * 6 * 5 * 11 = 7,260.
        assert (len(built), len(kept)) == (5702, 5513)
