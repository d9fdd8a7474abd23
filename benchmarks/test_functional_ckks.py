"""Functional-layer benchmarks: exact-arithmetic CKKS primitive latencies.

Not a paper table — these time the functional RNS-CKKS implementation
(reduced ring degree) that validates the algorithms the performance model
counts, including the MAD algorithmic variants (merged ModDown, hoisted
rotations) whose costs the analytical benchmarks above account for."""

import numpy as np
import pytest

from repro.params import toy_params
from repro.ckks import (
    Bootstrapper,
    CkksContext,
    Decryptor,
    Encryptor,
    Evaluator,
    KeyGenerator,
)


@pytest.fixture(scope="module")
def env():
    ctx = CkksContext(toy_params(log_n=5, log_q=30, max_limbs=6, dnum=3), seed=9)
    kg = KeyGenerator(ctx)
    evaluator = Evaluator(
        ctx,
        relin_key=kg.relinearization_key(),
        rotation_keys={1: kg.rotation_key(1), 2: kg.rotation_key(2)},
        conjugation_key=kg.conjugation_key(),
    )
    enc = Encryptor(ctx, secret_key=kg.secret_key)
    rng = np.random.default_rng(0)
    z = rng.normal(size=ctx.slots) + 1j * rng.normal(size=ctx.slots)
    return {
        "evaluator": evaluator,
        "ct1": enc.encrypt_values(z),
        "ct2": enc.encrypt_values(z[::-1].copy()),
    }


def test_bench_add(benchmark, env):
    benchmark(env["evaluator"].add, env["ct1"], env["ct2"])


def test_bench_mult_standard(benchmark, env):
    benchmark(env["evaluator"].mult, env["ct1"], env["ct2"])


def test_bench_mult_merged_mod_down(benchmark, env):
    ev = env["evaluator"]
    benchmark(
        lambda: ev.mult(env["ct1"], env["ct2"], merged_mod_down=True)
    )


def test_bench_rotate(benchmark, env):
    benchmark(env["evaluator"].rotate, env["ct1"], 1)


def test_bench_rotations_hoisted(benchmark, env):
    benchmark(env["evaluator"].rotations_hoisted, env["ct1"], [1, 2])


@pytest.mark.parametrize("fft_iter", [1, 2])
def test_bench_functional_bootstrap(benchmark, fft_iter):
    """Bootstrap whose DFTs run ``fft_iter`` sparse-diagonal stages each."""
    params = toy_params(log_n=4, log_q=29, max_limbs=16, dnum=4, fft_iter=fft_iter)
    ctx = CkksContext(params, scale_bits=29, seed=5)
    kg = KeyGenerator(ctx, hamming_weight=4)
    enc = Encryptor(ctx, secret_key=kg.secret_key)
    bs = Bootstrapper(ctx, kg, mod_degree=63)
    ct = enc.encrypt_values([0.2] * ctx.slots, scale=2.0**23, limbs=1)
    refreshed = benchmark.pedantic(bs.bootstrap, args=(ct,), rounds=2, iterations=1)
    assert refreshed.num_limbs > 1
