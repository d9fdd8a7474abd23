"""The benchmark's four workloads: set-up, one operation, output check.

Each workload is a class whose constructor is the set-up and whose
:meth:`Workload.op` runs one closed-loop operation.  The benchmark
generates every input from the seed; the code under test only ever sees
those inputs.  All randomness the scheme draws during an operation comes
from ``CkksContext.rng``, which is re-seeded from ``(seed, op index)``
before each operation, so op ``k`` produces bit-identical outputs whether
or not it runs traced.

The constructors take the ring parameters as arguments so the tests can
run every body at ``N = 2^4``.
"""

from __future__ import annotations

import hashlib
import json
import math
import random
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Dict, List, Optional, Tuple

import numpy as np

GOLDEN_DIR = Path(__file__).resolve().parent / "golden"


@dataclass(frozen=True)
class Check:
    """Outcome of one operation's output check."""

    ok: bool
    error: Optional[float]  # max abs slot error; None where nothing decrypts
    digest: str  # hash of the exact output, for traced/untraced identity


def _digest(payload: Any) -> str:
    return hashlib.sha256(repr(payload).encode()).hexdigest()[:16]


def _op_seed(seed: int, k: int) -> int:
    return seed * 1_000_003 + k


class Workload:
    """One benchmark workload; constructing it is the timed set-up.

    Class attributes fix how a run uses it: ``setups`` set-ups (the
    median is ``setup_s``), ``warmup`` untimed operations, then timed
    operations until both ``min_ops`` have run and ``--seconds`` have
    passed.  A traced run does ``trace_warmup`` untimed operations, then
    ``trace_pairs`` untraced/traced pairs.
    """

    name = ""
    why = ""
    setups = 3
    warmup = 1
    min_ops = 1
    trace_warmup = 1
    trace_pairs = 1

    def op(self, k: int) -> Any:
        raise NotImplementedError

    def check(self, out: Any) -> Check:
        raise NotImplementedError


def _slot_check(
    coeffs: List[int], values: np.ndarray, expected: np.ndarray, limit: float
) -> Check:
    error = float(np.max(np.abs(values - expected)))
    return Check(ok=error <= limit, error=error, digest=_digest(coeffs))


class BootN11(Workload):
    """Functional bootstrap of a 1-limb ciphertext at ``N = 2^11``.

    ``N = 2^11`` rather than the ROADMAP's ``2^12``: at ``2^12`` one set-up
    (43 switching keys) takes ~18 s, one bootstrap ~31 s and the process
    peaks at 3.5 GB, which leaves no room for repeated set-ups inside the
    benchmark's run-time budget.  The pipeline and parameters are
    otherwise the same.
    """

    name = "boot-n11"
    why = (
        "N=2^11 bootstrap: hoisted rotations, BSGS linear transforms and "
        "EvalMod; ring pointwise ops dominate"
    )
    # One bootstrap per run (~14 s); it is the first on its keys, so it
    # includes filling the per-level key caches.
    warmup = 0
    max_error = 5e-2
    expected_limbs = 5

    def __init__(
        self,
        seed: int,
        log_n: int = 11,
        max_limbs: int = 22,
        dnum: int = 3,
        fft_iter: int = 4,
        input_scale_bits: int = 26,
    ):
        from repro.ckks import (
            Bootstrapper,
            CkksContext,
            Decryptor,
            Encryptor,
            KeyGenerator,
        )
        from repro.params import toy_params

        params = toy_params(
            log_n=log_n, log_q=29, max_limbs=max_limbs, dnum=dnum, log_special=30
        )
        self.seed = seed
        self.context = CkksContext(params, scale_bits=29, seed=seed)
        keygen = KeyGenerator(self.context, hamming_weight=4)
        self.bootstrapper = Bootstrapper(
            self.context, keygen, mod_degree=63, fft_iter=fft_iter
        )
        self.decryptor = Decryptor(self.context, keygen.secret_key)
        rng = np.random.default_rng(seed)
        n = self.context.slots
        self.values = 0.25 * (rng.uniform(-1, 1, n) + 1j * rng.uniform(-1, 1, n))
        encryptor = Encryptor(self.context, secret_key=keygen.secret_key)
        self.ciphertext = encryptor.encrypt_values(
            list(self.values), scale=2.0**input_scale_bits, limbs=1
        )

    def op(self, k: int) -> Any:
        return self.bootstrapper.bootstrap(self.ciphertext)

    def check(self, out: Any) -> Check:
        plain = self.decryptor.decrypt(out)
        values = self.decryptor.decode(plain)
        result = _slot_check(plain.coeffs, values, self.values, self.max_error)
        if out.num_limbs != self.expected_limbs:
            return Check(ok=False, error=result.error, digest=result.digest)
        return result


class LrN13(Workload):
    """Encrypted logistic-regression inference at ``N = 2^13``."""

    name = "lr-n13"
    why = (
        "encrypted LR inference: unhoisted rotations pay Decomp+ModUp+ModDown "
        "each; no linear transforms or EvalMod"
    )
    setups = 3
    warmup = 1
    min_ops = 3
    trace_pairs = 2
    # Over seeds 0-20 the max slot error reaches 5.4e-3 (seed 10), always
    # at the same few slots, while the 99.9th percentile stays below
    # 1.3e-3.  A broken pipeline misses by orders of magnitude, so 2e-2
    # still catches it without failing good seeds.
    max_error = 2e-2
    interval = (-8.0, 8.0)
    sigmoid_degree = 7

    def __init__(
        self, seed: int, log_n: int = 13, max_limbs: int = 10, features: int = 64
    ):
        from repro.ckks import (
            CkksContext,
            Decryptor,
            Encryptor,
            Evaluator,
            KeyGenerator,
        )
        from repro.ckks.polyeval import chebyshev_fit, chebyshev_value
        from repro.params import toy_params

        params = toy_params(
            log_n=log_n, log_q=29, max_limbs=max_limbs, dnum=3, log_special=30
        )
        self.seed = seed
        self.context = CkksContext(params, scale_bits=29, seed=seed)
        n = self.context.slots
        if n % features:
            raise ValueError(f"{features} features do not tile {n} slots")
        self.steps = [1 << i for i in range(int(math.log2(features)))]
        keygen = KeyGenerator(self.context)
        self.encryptor = Encryptor(self.context, public_key=keygen.public_key())
        self.decryptor = Decryptor(self.context, keygen.secret_key)
        self.evaluator = Evaluator(
            self.context,
            relin_key=keygen.relinearization_key(),
            rotation_keys={s: keygen.rotation_key(s) for s in self.steps},
        )
        rng = np.random.default_rng(seed)
        # n/features samples of `features` features each, one sample per
        # block of slots; the model's weights repeat in every block.
        self.x = rng.uniform(-1.0, 1.0, n)
        self.w = np.tile(rng.normal(0.0, 0.3, features), n // features)
        self.bias = float(rng.normal(0.0, 0.5))
        self.coeffs = chebyshev_fit(
            lambda t: 1.0 / (1.0 + np.exp(-t)), self.sigmoid_degree, self.interval
        )
        score = self.x * self.w
        for s in self.steps:
            score = score + np.roll(score, -s)
        self.expected = chebyshev_value(self.coeffs, score + self.bias, self.interval)

    def op(self, k: int) -> Any:
        from repro.ckks.polyeval import ChebyshevEvaluator

        self.context.rng.seed(_op_seed(self.seed, k))
        ev = self.evaluator
        n = self.context.slots
        ct = self.encryptor.encrypt_values(list(self.x))
        ct = ev.pt_mult(ct, list(self.w))
        for s in self.steps:
            ct = ev.add(ct, ev.rotate(ct, s))
        ct = ev.pt_add(ct, [self.bias] * n)
        cheb = ChebyshevEvaluator(ev, ct, self.interval, self.sigmoid_degree)
        return self.decryptor.decrypt(cheb.evaluate(list(self.coeffs)))

    def check(self, out: Any) -> Check:
        values = self.decryptor.decode(out).real
        return _slot_check(out.coeffs, values, self.expected, self.max_error)


class ClientN13(Workload):
    """The data owner's encode/encrypt/decrypt/decode round trip."""

    name = "client-n13"
    why = (
        "client round trip: no key switching; CRT, sampling and coefficient "
        "form dominate"
    )
    # Set-up is ~0.1 s, so take the median of many.
    setups = 10
    warmup = 2
    min_ops = 40
    trace_warmup = 2
    trace_pairs = 10
    max_error = 2.5e-3

    def __init__(self, seed: int, log_n: int = 13, max_limbs: int = 10):
        from repro.ckks import CkksContext, Decryptor, Encryptor, KeyGenerator
        from repro.params import toy_params

        params = toy_params(
            log_n=log_n, log_q=29, max_limbs=max_limbs, dnum=3, log_special=30
        )
        self.seed = seed
        self.context = CkksContext(params, scale_bits=29, seed=seed)
        keygen = KeyGenerator(self.context)
        self.encryptor = Encryptor(self.context, public_key=keygen.public_key())
        self.decryptor = Decryptor(self.context, keygen.secret_key)
        rng = np.random.default_rng(seed)
        n = self.context.slots
        self.values = rng.uniform(-1, 1, n) + 1j * rng.uniform(-1, 1, n)

    def op(self, k: int) -> Any:
        self.context.rng.seed(_op_seed(self.seed, k))
        ct = self.encryptor.encrypt(self.encryptor.encode(list(self.values)))
        plain = self.decryptor.decrypt(ct)
        return plain, self.decryptor.decode(plain)

    def check(self, out: Any) -> Check:
        plain, values = out
        return _slot_check(plain.coeffs, values, self.values, self.max_error)


def ranking(results: Any) -> List[Tuple[List[int], float]]:
    """The search result as ``(params_key, throughput)`` rows, best first."""
    from repro.search import params_key

    return [(list(params_key(r.params)), r.throughput) for r in results]


class SearchTable5(Workload):
    """SimFHE's Table 5 brute-force parameter search (no functional CKKS)."""

    name = "search-table5"
    why = (
        "SimFHE Table 5 search: perf/search/sweep do all the work; bypasses "
        "the functional CKKS stack"
    )
    # Set-up (enumerating the grid) is ~0.03 s, so take the median of many.
    setups = 10
    # Each search builds a fresh memo, so there is no state to warm up.
    warmup = 0
    min_ops = 1
    trace_warmup = 0
    trace_pairs = 1
    design_name = "GPU [Jung et al.]"
    golden = GOLDEN_DIR / "search-table5.json"

    def __init__(self, seed: int, candidates: Optional[list] = None):
        from repro.hardware import PRIOR_DESIGNS, mad_counterpart
        from repro.perf import MADConfig
        from repro.search import enumerate_parameter_space

        self.design = mad_counterpart(PRIOR_DESIGNS[self.design_name])
        self.config = MADConfig.all()
        candidates = list(
            enumerate_parameter_space(log_n=self.design.params.log_n)
            if candidates is None
            else candidates
        )
        # The ranking is a total order, so the seed may shuffle the
        # candidates without changing the result.
        random.Random(seed).shuffle(candidates)
        self.candidates = candidates
        rows = json.loads(self.golden.read_text())["top10"]
        self.expected = [(list(key), float(t)) for key, t in rows]

    def op(self, k: int) -> Any:
        from repro.search import find_optimal_parameters

        return ranking(
            find_optimal_parameters(
                self.design, self.config, candidates=self.candidates, jobs=1
            )
        )

    def check(self, out: Any) -> Check:
        return Check(ok=out == self.expected, error=None, digest=_digest(out))


WORKLOADS: Dict[str, type] = {
    cls.name: cls for cls in (BootN11, LrN13, ClientN13, SearchTable5)
}
