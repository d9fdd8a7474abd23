import numpy as np
import pytest

from repro.ckks.polyeval import (
    ChebyshevEvaluator,
    _divide_by_t_s,
    chebyshev_fit,
    chebyshev_value,
)


class TestChebyshevFit:
    def test_fits_polynomial_exactly(self):
        coeffs = chebyshev_fit(lambda x: x**2, 4, (-2.0, 2.0))
        xs = np.linspace(-2, 2, 33)
        assert np.max(np.abs(chebyshev_value(coeffs, xs, (-2, 2)) - xs**2)) < 1e-12

    def test_fits_sine_accurately(self):
        interval = (-4.5, 4.5)
        coeffs = chebyshev_fit(np.sin, 40, interval)
        xs = np.linspace(*interval, 101)
        assert np.max(np.abs(chebyshev_value(coeffs, xs, interval) - np.sin(xs))) < 1e-9

    def test_rejects_bad_interval(self):
        with pytest.raises(ValueError):
            chebyshev_fit(np.sin, 8, (1.0, -1.0))


class TestChebyshevDivision:
    @pytest.mark.parametrize("degree,s", [(7, 4), (8, 4), (15, 8), (10, 8)])
    def test_split_identity(self, degree, s):
        rng = np.random.default_rng(degree * 31 + s)
        coeffs = rng.normal(size=degree + 1)
        hi, lo = _divide_by_t_s(list(coeffs), s)
        ts = np.polynomial.chebyshev.Chebyshev.basis(s)
        original = np.polynomial.chebyshev.Chebyshev(coeffs)
        rebuilt = np.polynomial.chebyshev.Chebyshev(hi) * ts + np.polynomial.chebyshev.Chebyshev(lo)
        xs = np.linspace(-1, 1, 41)
        assert np.max(np.abs(original(xs) - rebuilt(xs))) < 1e-10

    def test_rejects_oversized_degree(self):
        with pytest.raises(ValueError):
            _divide_by_t_s([1.0] * 20, 4)

    def test_lo_degree_bound(self):
        hi, lo = _divide_by_t_s([1.0] * 9, 4)
        assert len(lo) == 4
        assert len(hi) == 5


@pytest.fixture(scope="module")
def deep_env():
    """Context with Delta ~= q so deep circuits keep a stable scale."""
    from repro.params.presets import toy_params
    from repro.ckks import CkksContext, Decryptor, Encryptor, Evaluator, KeyGenerator

    ctx = CkksContext(
        toy_params(log_n=4, log_q=30, max_limbs=10, dnum=3),
        scale_bits=30,
        seed=13,
    )
    kg = KeyGenerator(ctx)
    return {
        "encryptor": Encryptor(ctx, secret_key=kg.secret_key),
        "decryptor": Decryptor(ctx, kg.secret_key),
        "evaluator": Evaluator(ctx, relin_key=kg.relinearization_key()),
    }


class TestHomomorphicEvaluation:
    @pytest.fixture()
    def evaluator(self, deep_env):
        return deep_env["evaluator"]

    @pytest.fixture()
    def decryptor(self, deep_env):
        return deep_env["decryptor"]

    @pytest.fixture()
    def setup(self, deep_env, rng):
        xs = rng.uniform(-0.9, 0.9, size=8)
        ct = deep_env["encryptor"].encrypt_values(xs)
        return xs, ct

    def test_evaluates_cubic(self, setup, evaluator, decryptor):
        xs, ct = setup
        interval = (-1.0, 1.0)
        coeffs = chebyshev_fit(lambda x: x**3 - 0.5 * x, 3, interval)
        cheb = ChebyshevEvaluator(evaluator, ct, interval, max_degree=3)
        got = decryptor.decrypt_values(cheb.evaluate(coeffs)).real
        assert np.max(np.abs(got - (xs**3 - 0.5 * xs))) < 5e-3

    def test_evaluates_exp_degree_seven(self, setup, evaluator, decryptor):
        xs, ct = setup
        interval = (-1.0, 1.0)
        coeffs = chebyshev_fit(np.exp, 7, interval)
        cheb = ChebyshevEvaluator(evaluator, ct, interval, max_degree=7)
        got = decryptor.decrypt_values(cheb.evaluate(coeffs)).real
        assert np.max(np.abs(got - np.exp(xs))) < 2e-2

    def test_shared_basis_reuse(self, setup, evaluator, decryptor):
        xs, ct = setup
        interval = (-1.0, 1.0)
        cheb = ChebyshevEvaluator(evaluator, ct, interval, max_degree=3)
        got_sq = decryptor.decrypt_values(
            cheb.evaluate(chebyshev_fit(lambda x: x**2, 3, interval))
        ).real
        got_cube = decryptor.decrypt_values(
            cheb.evaluate(chebyshev_fit(lambda x: x**3, 3, interval))
        ).real
        assert np.max(np.abs(got_sq - xs**2)) < 5e-3
        assert np.max(np.abs(got_cube - xs**3)) < 5e-3

    def test_complex_coefficient_factor(self, setup, evaluator, decryptor):
        xs, ct = setup
        interval = (-1.0, 1.0)
        coeffs = chebyshev_fit(lambda x: x, 1, interval) * 1j
        cheb = ChebyshevEvaluator(evaluator, ct, interval, max_degree=1)
        got = decryptor.decrypt_values(cheb.evaluate(coeffs))
        assert np.max(np.abs(got - 1j * xs)) < 5e-3

    def test_constant_series(self, setup, evaluator, decryptor):
        xs, ct = setup
        cheb = ChebyshevEvaluator(evaluator, ct, (-1.0, 1.0), max_degree=1)
        got = decryptor.decrypt_values(cheb.evaluate([0.75])).real
        assert np.max(np.abs(got - 0.75)) < 5e-3

    def test_degree_overflow_rejected(self, setup, evaluator):
        _, ct = setup
        cheb = ChebyshevEvaluator(evaluator, ct, (-1.0, 1.0), max_degree=3)
        with pytest.raises(ValueError):
            cheb.evaluate([0.0] * 10)

    def test_missing_power_rejected(self, setup, evaluator):
        _, ct = setup
        cheb = ChebyshevEvaluator(evaluator, ct, (-1.0, 1.0), max_degree=3)
        with pytest.raises(ValueError):
            cheb.power(17)

    def test_bad_max_degree_rejected(self, setup, evaluator):
        _, ct = setup
        with pytest.raises(ValueError):
            ChebyshevEvaluator(evaluator, ct, (-1.0, 1.0), max_degree=0)


@pytest.fixture(scope="module")
def sine_env():
    """The toy bootstrap's chain: deep enough for a degree-63 series."""
    from repro.params.presets import toy_params
    from repro.ckks import CkksContext, Decryptor, Encryptor, Evaluator, KeyGenerator

    ctx = CkksContext(
        toy_params(log_n=4, log_q=29, max_limbs=14, dnum=3), scale_bits=29, seed=5
    )
    kg = KeyGenerator(ctx)
    return {
        "ctx": ctx,
        "encryptor": Encryptor(ctx, secret_key=kg.secret_key),
        "decryptor": Decryptor(ctx, kg.secret_key),
        "evaluator": Evaluator(ctx, relin_key=kg.relinearization_key()),
    }


def _counting_mults(evaluator, monkeypatch):
    calls = []
    mult = evaluator.mult

    def counted(*args, **kwargs):
        calls.append(1)
        return mult(*args, **kwargs)

    monkeypatch.setattr(evaluator, "mult", counted)
    return calls


class TestOnDemandPowers:
    INTERVAL = (-4.5, 4.5)

    def _odd_sine(self):
        def sine(u):
            return np.sin(2 * np.pi * u) / (2 * np.pi)

        coeffs = chebyshev_fit(sine, 63, self.INTERVAL)
        coeffs[::2] = 0.0
        return coeffs

    def test_odd_degree_63_series_skips_t6_and_runs_14_mults(
        self, sine_env, monkeypatch
    ):
        ev = sine_env["evaluator"]
        xs = np.linspace(-4, 4, 8) + 0.01
        ct = sine_env["encryptor"].encrypt_values(xs)
        calls = _counting_mults(ev, monkeypatch)
        cheb = ChebyshevEvaluator(ev, ct, self.INTERVAL, max_degree=63)
        assert calls == []
        coeffs = self._odd_sine()
        got = sine_env["decryptor"].decrypt_values(cheb.evaluate(list(coeffs))).real
        assert sorted(cheb._powers) == [1, 2, 3, 4, 5, 7, 8, 16, 32]
        assert len(calls) == 14
        want = chebyshev_value(coeffs, xs, self.INTERVAL)
        assert np.max(np.abs(got - want)) < 2e-3

    def test_a_power_is_built_once(self, sine_env, monkeypatch):
        ev = sine_env["evaluator"]
        ct = sine_env["encryptor"].encrypt_values(np.linspace(-1, 1, 8))
        cheb = ChebyshevEvaluator(ev, ct, (-1.0, 1.0), max_degree=15)
        calls = _counting_mults(ev, monkeypatch)
        first = cheb.power(4)
        assert len(calls) == 2  # T_2, then T_4
        assert cheb.power(4) is first and cheb.power(2) is cheb.power(2)
        assert len(calls) == 2
        with pytest.raises(ValueError):
            cheb.power(12)  # neither a baby step (< 4) nor a giant one

    def test_leaf_rescales_once_onto_the_context_scale(self, sine_env):
        ev, ctx = sine_env["evaluator"], sine_env["ctx"]
        xs = np.linspace(-0.9, 0.9, 8)
        ct = sine_env["encryptor"].encrypt_values(xs)
        cheb = ChebyshevEvaluator(ev, ct, (-1.0, 1.0), max_degree=15)
        coeffs = [0.1, -0.4, 0.3, 0.25]  # degree 3 < baby 4: one leaf
        out = cheb.evaluate(coeffs)
        assert out.scale == ctx.scale
        assert out.num_limbs == cheb.power(3).num_limbs - 1
        got = sine_env["decryptor"].decrypt_values(out).real
        assert np.max(np.abs(got - chebyshev_value(coeffs, xs, (-1.0, 1.0)))) < 1e-4
