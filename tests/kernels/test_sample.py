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
from repro.kernels import uniform_rows
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

