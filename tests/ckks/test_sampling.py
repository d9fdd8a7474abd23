"""Bit-exactness of the vectorised Gaussian and ternary samplers.

The references are the per-draw loops ``CkksContext`` runs under
``kernels.oracle_only()``.  A replay must return the same ints and leave
the generator in the same state: ``getstate()`` (``gauss_next``
included) and the next ``gauss()`` and ``random()`` draws.
"""

import math
import random

import numpy as np
import pytest

from repro import kernels
from repro.ckks import CkksContext, sampling
from repro.kernels import uniform_rows
from repro.params.presets import toy_params

COUNTS = (0, 1, 2, 3, 17, 2048, 8192, 32768)


def gauss_loop(rng, count, sigma):
    return [int(round(rng.gauss(0.0, sigma))) for _ in range(count)]


def twins(seed, pending):
    """Two generators in one state; ``pending`` leaves a ``gauss_next``."""
    expected_rng, rng = random.Random(seed), random.Random(seed)
    if pending:
        expected_rng.gauss()
        rng.gauss()
        assert rng.gauss_next is not None
    return expected_rng, rng


def assert_same_stream(rng, expected_rng, label):
    assert rng.getstate() == expected_rng.getstate(), label
    assert rng.gauss() == expected_rng.gauss(), label
    assert rng.random() == expected_rng.random(), label


class TestGaussianReplay:
    @pytest.mark.parametrize("pending", [False, True], ids=["fresh", "pending"])
    @pytest.mark.parametrize("sigma", [1.0, 3.2, 19.2])
    @pytest.mark.parametrize("seed", [1, 2, 3, 4, 5])
    def test_matches_gauss_loop(self, seed, sigma, pending):
        # 5 seeds x 3 sigmas x 2 starts x 43,031 values: 1.29 M samples.
        for count in COUNTS:
            expected_rng, rng = twins(seed, pending)
            expected = gauss_loop(expected_rng, count, sigma)
            got = sampling.rounded_gaussians(rng, count, sigma)
            label = f"count={count}"
            assert got == expected, label
            assert all(type(value) is int for value in got), label
            assert_same_stream(rng, expected_rng, label)

    @pytest.mark.parametrize("pending", [False, True], ids=["fresh", "pending"])
    @pytest.mark.parametrize("count", [1, 2, 3, 17, 2048])
    def test_guarded_math_path_on_every_pair(self, monkeypatch, count, pending):
        """A band wider than 1/2 sends every pair through ``math``, which
        must then override numpy's values entirely: here numpy's ``log``
        is skewed far beyond any ULP error, and the result still equals
        the loop's."""
        calls = []
        exact_pair = sampling._gauss_pair

        def spy(u1, u2):
            calls.append((u1, u2))
            return exact_pair(u1, u2)

        class SkewedNumpy:
            def __getattr__(self, name):
                return getattr(np, name)

            @staticmethod
            def log(x):
                return np.log(x) * 1.01

        monkeypatch.setattr(sampling, "_GUARD", 1.0)
        monkeypatch.setattr(sampling, "_gauss_pair", spy)
        monkeypatch.setattr(sampling, "np", SkewedNumpy())
        expected_rng, rng = twins(7, pending)
        expected = gauss_loop(expected_rng, count, 3.2)
        assert sampling.rounded_gaussians(rng, count, 3.2) == expected
        assert_same_stream(rng, expected_rng, f"count={count}")
        from_pairs = count - pending
        pairs = (from_pairs + 1) // 2
        # One call per pair, plus one for an odd count's ``gauss_next``.
        assert len(calls) == pairs + from_pairs % 2

    def test_negative_and_zero_sigma(self):
        for sigma in (-3.2, 0.0):
            expected_rng, rng = twins(8, False)
            expected = gauss_loop(expected_rng, 2049, sigma)
            assert sampling.rounded_gaussians(rng, 2049, sigma) == expected
            assert_same_stream(rng, expected_rng, f"sigma={sigma}")

    @pytest.mark.parametrize("sigma", [math.nan, math.inf, 2.0**33])
    def test_out_of_range_sigma_rejected(self, sigma):
        with pytest.raises(ValueError, match="sigma"):
            sampling.rounded_gaussians(random.Random(1), 16, sigma)


class TestTernaryKernel:
    @pytest.mark.parametrize("pending", [False, True], ids=["fresh", "pending"])
    @pytest.mark.parametrize("degree", [16, 8192])
    @pytest.mark.parametrize("seed", [1, 2, 3])
    def test_matches_choice_loop(self, seed, degree, pending):
        expected_rng, rng = twins(seed, pending)
        expected = [expected_rng.choice((-1, 0, 1)) for _ in range(degree)]
        assert (uniform_rows(rng, (3,), degree)[0] - 1).tolist() == expected
        assert_same_stream(rng, expected_rng, f"degree={degree}")


class TestContextSamplers:
    @pytest.fixture(params=[16, 8192], ids=["N16", "N8192"])
    def params(self, request):
        log_n = request.param.bit_length() - 1
        return toy_params(log_n=log_n, log_q=29, max_limbs=2)

    @pytest.mark.parametrize(
        "draw",
        [
            lambda ctx: ctx.sample_ternary_coeffs(),
            lambda ctx: ctx.sample_error_coeffs(),
            lambda ctx: ctx.sample_error_coeffs(19.2),
            lambda ctx: ctx.sample_error_coeffs(2.0**40),
        ],
        ids=["ternary", "error", "error-wide", "error-beyond-bound"],
    )
    def test_oracle_only_runs_the_loops(self, params, draw):
        fast, oracle = CkksContext(params, seed=5), CkksContext(params, seed=5)
        # Start mid-pair, so a pending ``gauss_next`` must carry over.
        fast.rng.gauss()
        oracle.rng.gauss()
        got = [draw(fast) for _ in range(3)]
        with kernels.oracle_only():
            expected = [draw(oracle) for _ in range(3)]
        assert got == expected
        assert all(type(c) is int for coeffs in got for c in coeffs)
        assert_same_stream(fast.rng, oracle.rng, "context")
