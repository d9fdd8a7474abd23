"""The vectorized NTT must be at least 10x the pure-Python oracle.

Not a paper table: the gate times one forward + inverse round trip of a
whole RNS basis (8 limbs of 30-bit moduli at N = 2^12) on both engines,
best of three each.  Parity is not checked here;
``tests/kernels/test_ntt_differential.py`` holds the kernel bit-exact
against the oracle in tier-1.  A plain test, so it runs without
pytest-benchmark.
"""

import random
import time

import pytest

from repro.kernels import BatchNttKernel
from repro.numth import NttContext, find_ntt_primes

DEGREE = 1 << 12
LIMBS = 8
MIN_SPEEDUP = 10.0


def _best_of(run, repeats=3):
    best = float("inf")
    for _ in range(repeats):
        start = time.perf_counter()
        run()
        best = min(best, time.perf_counter() - start)
    return best


@pytest.mark.repro("NTT kernel speedup (N=2^12, 8 limbs)")
def test_vectorized_ntt_round_trip_is_ten_times_the_oracle():
    primes = find_ntt_primes(30, DEGREE, LIMBS)
    contexts = [NttContext(DEGREE, q) for q in primes]
    kernel = BatchNttKernel(DEGREE, primes)
    rng = random.Random(2012)
    rows = [[rng.randrange(q) for _ in range(DEGREE)] for q in primes]

    oracle = _best_of(
        lambda: [ctx.inverse(ctx.forward(row)) for ctx, row in zip(contexts, rows)]
    )
    vectorized = _best_of(lambda: kernel.inverse(kernel.forward(rows)))
    speedup = oracle / vectorized
    print(
        f"NTT round trip N=2^12 x {LIMBS} limbs: oracle {oracle * 1e3:.1f} ms, "
        f"vectorized {vectorized * 1e3:.2f} ms, speedup {speedup:.1f}x"
    )
    assert speedup >= MIN_SPEEDUP, (
        f"vectorized NTT only {speedup:.1f}x the oracle (gate: {MIN_SPEEDUP:g}x)"
    )
