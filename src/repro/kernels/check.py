"""Differential check harness for the vectorized NTT kernels.

The CI gate behind ``repro kernels``: bit-exact forward/inverse parity
of :class:`repro.kernels.ntt.BatchNttKernel` against the pure-Python
:class:`repro.numth.ntt.NttContext` oracle at chosen ring degrees, plus
an optional min-of-k wall-clock speedup gate.

Report contract (:data:`KERNELS_REPORT`): the gated content — per-degree
``parity`` and the overall ``passed`` verdict — is a pure function of
``(degrees, limbs, seed)``; inputs come off a string-seeded
``random.Random`` stream (SHA-512 seeded, immune to
``PYTHONHASHSEED``), so identical seeds replay identical residue
matrices on every platform.  The ``runtime`` block carries host
wall-clock and is volatile by contract, like every other report
family's timing fields.
"""

from __future__ import annotations

import random
import time
from typing import Any, Dict, List, Optional, Sequence

from repro.kernels.sample import uniform_rows
from repro.obs import schema
from repro.obs.schema import NON_NEGATIVE, Schema, fields

_POSITIVE: Dict[str, Any] = {"type": "integer", "minimum": 1}

KERNELS_REPORT = Schema(
    "repro.kernels/v1",
    {
        "title": "repro kernels oracle-parity report",
        "type": "object",
        "required": ["results", "passed"],
        "properties": {
            "seed": {"type": "integer"},
            "min_speedup": {"type": ["number", "null"]},
            "results": {
                "type": "array",
                "minItems": 1,
                "items": {
                    "type": "object",
                    "required": ["degree", "limbs", "parity"],
                    "properties": {
                        "degree": _POSITIVE,
                        "limbs": _POSITIVE,
                        "parity": {"type": "boolean"},
                    },
                },
            },
            "runtime": {
                "type": "array",
                "items": fields(
                    NON_NEGATIVE,
                    "degree",
                    "oracle_seconds",
                    "vectorized_seconds",
                    "speedup",
                ),
            },
            "passed": {"type": "boolean"},
        },
    },
)


def sample_rows(
    degree: int, moduli: Sequence[int], seed: int
) -> List[List[int]]:
    """Seed-deterministic residue matrix with boundary values planted.

    Random sampling alone is unlikely to hit the exact ends of the
    residue range, where the kernel's products sit closest to their
    bound — so ``0`` and ``q - 1`` are planted in every limb.
    """
    rng = random.Random(f"repro.kernels:{seed}:{degree}")
    rows = uniform_rows(rng, moduli, degree, advance=False).tolist()
    for row, q in zip(rows, moduli):
        row[0], row[1], row[-1] = 0, q - 1, q - 1
    return rows


def run_check(
    degrees: Sequence[int] = (4096,),
    limbs: int = 8,
    repeats: int = 3,
    min_speedup: Optional[float] = None,
    parity_only: bool = False,
    seed: int = 2012,
) -> Dict[str, Any]:
    """Run the parity (and optionally speedup) check; returns the validated
    :data:`KERNELS_REPORT`.  Raises ValueError unless ``repeats >= 1``."""
    from repro.kernels.ntt import BatchNttKernel
    from repro.numth import NttContext, find_ntt_primes

    if repeats < 1:
        raise ValueError(f"repeats must be at least 1, got {repeats}")

    results: List[Dict[str, Any]] = []
    runtime: List[Dict[str, Any]] = []
    passed = True
    for degree in degrees:
        primes = find_ntt_primes(30, degree, limbs)
        contexts = [NttContext(degree, q) for q in primes]
        kernel = BatchNttKernel(degree, primes)
        rows = sample_rows(degree, primes, seed)

        fwd = kernel.forward(rows)
        parity = fwd.tolist() == [
            ctx.forward(row) for ctx, row in zip(contexts, rows)
        ] and kernel.inverse(fwd).tolist() == rows
        results.append({"degree": degree, "limbs": limbs, "parity": parity})
        passed &= parity

        if parity_only:
            continue
        oracle_s = _best_of(
            repeats,
            lambda: [
                ctx.inverse(ctx.forward(row))
                for ctx, row in zip(contexts, rows)
            ],
        )
        vector_s = _best_of(
            repeats, lambda: kernel.inverse(kernel.forward(rows))
        )
        speedup = oracle_s / vector_s
        runtime.append(
            {
                "degree": degree,
                "oracle_seconds": oracle_s,
                "vectorized_seconds": vector_s,
                "speedup": speedup,
            }
        )
        # Written so a NaN speedup fails the gate.
        if min_speedup is not None and not speedup >= min_speedup:
            passed = False

    report: Dict[str, Any] = {
        "schema": KERNELS_REPORT.id,
        "seed": seed,
        "min_speedup": min_speedup,
        "results": results,
        "runtime": runtime,
        "passed": passed,
    }
    schema.validate(report, KERNELS_REPORT)
    return report


def _best_of(repeats: int, run: Any) -> float:
    best = float("inf")
    for _ in range(repeats):
        started = time.perf_counter()
        run()
        best = min(best, time.perf_counter() - started)
    return best


def render_report(report: Dict[str, Any]) -> str:
    """Human-readable rendering of a check report."""
    timing = {entry["degree"]: entry for entry in report.get("runtime", [])}
    lines = []
    for entry in report["results"]:
        degree = entry["degree"]
        line = (
            f"N=2^{degree.bit_length() - 1} limbs={entry['limbs']} "
            f"parity={'ok' if entry['parity'] else 'FAIL'}"
        )
        timed = timing.get(degree)
        if timed:
            line += (
                f"  oracle {timed['oracle_seconds'] * 1e3:9.1f} ms"
                f"  vectorized {timed['vectorized_seconds'] * 1e3:7.1f} ms"
                f"  speedup {timed['speedup']:6.1f}x"
            )
        lines.append(line)
    lines.append("PASS" if report["passed"] else "FAIL")
    return "\n".join(lines)
