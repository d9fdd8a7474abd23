"""Bit-exactness of the vectorized uniform-row sampler.

The reference is the ``randrange`` comprehension that
``CkksContext.sample_uniform_rows`` runs on ``object``-dtype bases and
under ``kernels.oracle_only()``.  The kernel must return the same rows
and leave the generator in the same state; a CPython change to
``Random._randbelow`` would show up here first.
"""

import random

import numpy as np
import pytest

from repro import kernels
from repro.ckks import CkksContext
from repro.kernels import RowEndsError, replay_rows, uniform_rows
from repro.params.presets import toy_params

# Acceptance q / 2**k: ~1/2 just above a power of two, ~1 just below one.
HALF_ACCEPT = [(1 << 29) + 11, (1 << 29) + 33, (1 << 29) + 63]
FULL_ACCEPT = [(1 << 30) - 35, (1 << 30) - 41, (1 << 30) - 107]
# A power of two draws k = q.bit_length() bits too: acceptance exactly 1/2.
MIXED = [(1 << 19) + 21, (1 << 30) - 35, 1 << 20, (1 << 31) - 1, (1 << 32) - 5]


def reference(rng, moduli, degree):
    return [[rng.randrange(q) for _ in range(degree)] for q in moduli]


@pytest.mark.parametrize("degree", [16, 2048])
@pytest.mark.parametrize(
    "moduli", [HALF_ACCEPT, FULL_ACCEPT, MIXED], ids=["half", "full", "mixed"]
)
@pytest.mark.parametrize("seed", [1, 2, 3])
def test_matches_randrange_comprehension(seed, moduli, degree):
    expected_rng, rng = random.Random(seed), random.Random(seed)
    expected = reference(expected_rng, moduli, degree)
    rows = uniform_rows(rng, moduli, degree)
    assert rows.dtype == np.int64 and rows.shape == (len(moduli), degree)
    assert rows.tolist() == expected
    assert rng.getstate() == expected_rng.getstate()


def test_unadvanced_generator_is_left_alone():
    rng = random.Random(9)
    state = rng.getstate()
    rows = uniform_rows(rng, HALF_ACCEPT, 16, advance=False)
    assert rng.getstate() == state
    assert rows.tolist() == reference(random.Random(9), HALF_ACCEPT, 16)


def test_interleaved_gauss_stream_continues_like_the_loop():
    """``gauss()`` caches a second normal in ``gauss_next``; an unseeded
    sample between two ``gauss()`` calls must neither drop nor reuse it."""
    expected_rng, rng = random.Random(4), random.Random(4)
    expected_rng.gauss(0.0, 3.2)
    rng.gauss(0.0, 3.2)
    expected = reference(expected_rng, MIXED, 2048)
    assert uniform_rows(rng, MIXED, 2048).tolist() == expected
    assert rng.gauss(0.0, 3.2) == expected_rng.gauss(0.0, 3.2)
    assert rng.random() == expected_rng.random()
    assert rng.gauss(0.0, 3.2) == expected_rng.gauss(0.0, 3.2)


def _recorded(seed, moduli, degree):
    """Rows of ``seed``'s stream and each row's ``[start, end)`` word range."""
    ends = np.empty(len(moduli), dtype=np.int64)
    rows = uniform_rows(random.Random(seed), moduli, degree, advance=False, ends=ends)
    return rows, np.stack((np.concatenate(([0], ends[:-1])), ends), axis=1)


def _live_rows(count):
    """Every live-row set of a key over ``count`` rows: the first ``l``
    rows and the last ``count - s`` (the specials), for ``l <= s``."""
    for low in range(count + 1):
        for high in range(low, count + 1):
            rows = list(range(low)) + list(range(high, count))
            if rows:
                yield rows


class TestReplay:
    """A compressed key re-expands only the rows a key switch reads."""

    def test_recording_ends_leaves_rows_and_stream_alone(self):
        expected_rng, rng = random.Random(5), random.Random(5)
        expected = reference(expected_rng, MIXED, 2048)
        ends = np.empty(len(MIXED), dtype=np.int64)
        assert uniform_rows(rng, MIXED, 2048, ends=ends).tolist() == expected
        assert rng.getstate() == expected_rng.getstate()
        assert (np.diff(ends) >= 2048).all() and ends[0] >= 2048

    @pytest.mark.parametrize("degree", [16, 2048])
    @pytest.mark.parametrize(
        "moduli", [HALF_ACCEPT, FULL_ACCEPT, MIXED], ids=["half", "full", "mixed"]
    )
    @pytest.mark.parametrize("seed", [0, 2**62 - 1])
    def test_live_rows_match_randrange_comprehension(self, seed, moduli, degree):
        expected = reference(random.Random(seed), moduli, degree)
        _, spans = _recorded(seed, moduli, degree)
        for live in _live_rows(len(moduli)):
            rng = random.Random(seed)
            state = rng.getstate()
            rows = replay_rows(rng, [moduli[i] for i in live], degree, spans[live])
            assert rows.dtype == np.int64
            assert rows.tolist() == [expected[i] for i in live], live
            assert rng.getstate() == state

    def test_ends_of_another_seed_raise(self):
        _, spans = _recorded(1, MIXED, 2048)
        with pytest.raises(RowEndsError, match="draws, not 2048"):
            replay_rows(random.Random(2), MIXED, 2048, spans)

    @pytest.mark.parametrize("row", range(len(MIXED)))
    def test_end_one_word_early_raises(self, row):
        # A recorded end is one past the row's last accepted word, so
        # ending one word earlier always leaves that row a draw short.
        _, spans = _recorded(3, MIXED, 2048)
        spans[row, 1] -= 1
        if row + 1 < len(MIXED):
            spans[row + 1, 0] -= 1
        with pytest.raises(RowEndsError, match=f"row {row} .* 2047 draws"):
            replay_rows(random.Random(3), MIXED, 2048, spans)

    def test_ranges_out_of_stream_order_raise(self):
        _, spans = _recorded(3, MIXED, 16)
        with pytest.raises(RowEndsError, match="stream order"):
            replay_rows(random.Random(3), MIXED[:2][::-1], 16, spans[:2][::-1])
        with pytest.raises(RowEndsError, match="stream order"):
            replay_rows(random.Random(3), MIXED[:1], 16, spans[:1, ::-1])


class TestContextSampler:
    @pytest.fixture(params=[16, 2048], ids=["N16", "N2048"])
    def context(self, request):
        log_n = request.param.bit_length() - 1
        return CkksContext(toy_params(log_n=log_n, log_q=29, max_limbs=4), seed=3)

    def test_seeded_rows_replay_the_seed(self, context):
        basis = context.raised_basis(context.max_limbs)
        state = context.rng.getstate()
        rows = context.sample_uniform_rows(basis, seed=2**61 + 5)
        assert context.rng.getstate() == state
        assert rows.tolist() == reference(
            random.Random(2**61 + 5), basis.moduli, basis.degree
        )

    def test_unseeded_rows_advance_the_context_rng(self, context):
        basis = context.basis_at(context.max_limbs)
        expected_rng = random.Random()
        expected_rng.setstate(context.rng.getstate())
        rows = context.sample_uniform_rows(basis)
        assert rows.tolist() == reference(expected_rng, basis.moduli, basis.degree)
        assert context.rng.getstate() == expected_rng.getstate()

    def test_spans_replay_a_subset_of_the_seeded_rows(self, context):
        full = context.raised_basis(context.max_limbs)
        ends = np.empty(len(full), dtype=np.int64)
        previous = kernels.set_enabled(True)
        try:
            rows = context.sample_uniform_rows(full, seed=41, ends=ends)
            starts = np.concatenate(([0], ends[:-1]))
            for limbs in range(1, context.max_limbs + 1):
                live = list(range(limbs)) + list(range(context.max_limbs, len(full)))
                spans = np.stack((starts[live], ends[live]), axis=1)
                basis = context.raised_basis(limbs)
                got = context.sample_uniform_rows(basis, seed=41, spans=spans)
                assert np.array_equal(got, rows[live])
        finally:
            kernels.set_enabled(previous)

    def test_spans_need_a_seed_and_the_kernel_path(self, context):
        basis = context.raised_basis(1)
        spans = np.zeros((len(basis), 2), dtype=np.int64)
        with pytest.raises(ValueError, match="seeded stream"):
            context.sample_uniform_rows(basis, spans=spans)
        with kernels.oracle_only():
            with pytest.raises(ValueError, match="kernel path"):
                context.sample_uniform_rows(basis, seed=1, spans=spans)

    @pytest.mark.parametrize("seed", [None, 77])
    def test_oracle_only_draws_the_same_rows(self, context, seed):
        basis = context.raised_basis(context.max_limbs)
        twin = CkksContext(context.params, seed=3)
        fast = context.sample_uniform_rows(basis, seed=seed)
        with kernels.oracle_only():
            oracle = twin.sample_uniform_rows(basis, seed=seed)
        assert oracle.dtype == fast.dtype == np.int64
        assert np.array_equal(oracle, fast)
        assert twin.rng.getstate() == context.rng.getstate()


@pytest.mark.parametrize("seed", [None, 77])
def test_object_dtype_basis_uses_the_comprehension(seed):
    context = CkksContext(toy_params(log_q=40), seed=3)
    basis = context.basis_at(context.max_limbs)
    assert basis.dtype == np.dtype(object)
    expected_rng = random.Random(seed)
    if seed is None:
        expected_rng.setstate(context.rng.getstate())
    rows = context.sample_uniform_rows(basis, seed=seed)
    assert rows.dtype == np.dtype(object)
    assert rows.tolist() == reference(expected_rng, basis.moduli, basis.degree)

