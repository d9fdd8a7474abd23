"""Every workload body at ``N = 2^4``, its output checks, and the runner."""

import dataclasses

import pytest

import worker
import workloads as W


class SmallBoot(W.BootN11):
    def __init__(self, seed):
        super().__init__(seed, log_n=4, max_limbs=18, dnum=4, fft_iter=2,
                         input_scale_bits=23)


class SmallLr(W.LrN13):
    def __init__(self, seed):
        super().__init__(seed, log_n=4, features=8)


class SmallClient(W.ClientN13):
    min_ops = 3
    setups = 2
    trace_pairs = 2

    def __init__(self, seed):
        super().__init__(seed, log_n=4, max_limbs=3)


class SmallSearch(W.SearchTable5):
    def __init__(self, seed):
        from repro.search import enumerate_parameter_space, find_optimal_parameters

        candidates = list(enumerate_parameter_space(log_n=17))[:40]
        super().__init__(seed, candidates=candidates)
        self.expected = W.ranking(
            find_optimal_parameters(self.design, self.config, candidates=candidates)
        )


def _corrupt_boot(wl, out):
    return wl.bootstrapper.evaluator.add(out, out)


def _corrupt_plain(plain):
    return dataclasses.replace(plain, coeffs=[c + (1 << 40) for c in plain.coeffs])


def _corrupt_client(wl, out):
    plain = _corrupt_plain(out[0])
    return plain, wl.decryptor.decode(plain)


CASES = [
    (SmallBoot, _corrupt_boot),
    (SmallLr, lambda wl, out: _corrupt_plain(out)),
    (SmallClient, _corrupt_client),
    (SmallSearch, lambda wl, out: out[1:] + out[:1]),
]


@pytest.mark.parametrize("cls, corrupt", CASES, ids=lambda c: getattr(c, "name", ""))
def test_body_passes_and_corruption_fails(cls, corrupt):
    wl = cls(3)
    out = wl.op(1)
    check = wl.check(out)
    assert check.ok, check
    assert wl.check(wl.op(1)).digest == check.digest  # op k is reproducible
    assert not wl.check(corrupt(wl, out)).ok


def test_boot_rejects_wrong_limb_count():
    wl = SmallBoot(0)
    out = wl.op(0)
    assert not wl.check(wl.bootstrapper.evaluator.reduce_level(out, 4)).ok


def test_search_result_ignores_candidate_order():
    assert SmallSearch(1).op(0) == SmallSearch(2).op(0)


def test_corrupted_output_raises_failed_frac():
    class Corrupted(SmallClient):
        def op(self, k):
            out = super().op(k)
            return _corrupt_client(self, out) if k % 2 else out

    clean = worker.run_untraced(SmallClient, 0, 0.0)
    assert clean["failed"] == 0 and clean["failed_frac"] == 0.0
    dirty = worker.run_untraced(Corrupted, 0, 0.0)
    assert dirty["failed"] == 2
    assert dirty["failed_frac"] == pytest.approx(2 / 5)


def test_exceptions_are_counted_and_the_run_continues():
    class Flaky(SmallClient):
        def op(self, k):
            if k == 3:
                raise RuntimeError("boom")
            return super().op(k)

    result = worker.run_untraced(Flaky, 0, 0.0)
    assert result["attempted"] == 5 and result["failed"] == 1
    assert len(result["latencies"]) == 2


def test_traced_run_is_transparent():
    result = worker.run_traced(SmallClient, 0, ["ring.crt.self_s", "ckks.encode.calls",
                                                "trace.coverage_frac"], None)
    assert result["failed"] == 0
    assert result["metrics"]["ckks.encode.calls"] == 1
    assert result["metrics"]["trace.coverage_frac"] >= worker.MIN_COVERAGE


def test_traced_output_mismatch_is_a_failure():
    class Drifting(SmallClient):
        calls = 0

        def op(self, k):
            Drifting.calls += 1
            out = super().op(k)
            return _corrupt_client(self, out) if Drifting.calls == 4 else out

    # Warm-up 2 ops, then pairs: call 3 untraced, call 4 traced (corrupted).
    result = worker.run_traced(Drifting, 0, [], None)
    assert result["failed"] >= 1
