"""Brute-force throughput-maximising parameter search (Section 4.1).

Given a hardware budget (multiplier count, bandwidth, on-chip memory),
evaluate the bootstrapping cost model for every admissible parameter set
and rank by the Han-Ki throughput metric.  This regenerates the
"Ours" row of Table 5.

Candidates are evaluated through :mod:`repro.sweep`.  The ranking is a
**total, documented order** (see :func:`ranking_key`), so the result is
independent of the order the candidates are enumerated in.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass
from typing import Iterable, List, Optional, Tuple

from repro.params import CkksParams
from repro.perf import MADConfig
from repro.perf.events import CostReport
from repro.hardware.design import HardwareDesign
from repro.hardware.runtime import RuntimeEstimate


@dataclass(frozen=True, slots=True)
class ParameterSearchResult:
    """One evaluated parameter set."""

    params: CkksParams
    cost: CostReport
    runtime: RuntimeEstimate
    throughput: float

    def describe(self) -> str:
        return (
            f"{self.params.describe()}: {self.runtime.milliseconds:.2f} ms "
            f"({self.runtime.bound}-bound), throughput {self.throughput:.0f}"
        )


def params_key(params: CkksParams) -> Tuple:
    """Canonical total order over CKKS parameter sets.

    Used as the final ranking tie-break: two distinct parameter sets can
    share a throughput *and* a runtime (the cost model is piecewise in
    the parameters), and without a total order their relative rank would
    depend on enumeration order.
    """
    return (
        params.log_n,
        params.log_q,
        params.max_limbs,
        params.dnum,
        params.fft_iter,
        params.special_bits,
        params.eval_mod_depth,
        params.bit_precision,
        params.word_bytes,
    )


def ranking_key(result: ParameterSearchResult) -> Tuple:
    """The documented total ranking order of search results.

    1. throughput, descending (the Table 5 figure of merit);
    2. runtime, ascending (of equal-throughput sets, prefer the faster);
    3. :func:`params_key`, ascending (a canonical tie-break so the order
       is total and independent of enumeration order).
    """
    return (-result.throughput, result.runtime.seconds, params_key(result.params))


def find_optimal_parameters(
    design: HardwareDesign,
    config: MADConfig = MADConfig.all(),
    candidates: Optional[Iterable[CkksParams]] = None,
    enforce_cache: bool = False,
    top: int = 10,
    jobs: int = 1,
) -> List[ParameterSearchResult]:
    """Rank parameter sets by bootstrapping throughput on ``design``.

    Args:
        design: the hardware budget (multipliers, bandwidth, on-chip MB).
        config: MAD optimizations to assume.
        candidates: parameter sets to evaluate; defaults to the full
            admissible space for the design's ring degree.  Any iterable
            is accepted and materialised up front, so generators are safe
            even when the caller also consumes them elsewhere.
        enforce_cache: gate caching optimizations on the design's actual
            on-chip capacity (the paper assumes 32 MB suffices for its
            optimal set; pass True for strictly-capacity-checked results).
        top: how many results to return, best first; at least 1.
        jobs: must be 1.  The sweep process pool is retired and every
            search runs in-process; the keyword stays for existing
            callers that pass ``jobs=1``.
    """
    from repro.search.space import enumerate_parameter_space
    from repro.sweep import SweepAxis, SweepSpec, run_sweep

    if top < 1:
        raise ValueError(f"top must be >= 1, got {top}")
    if jobs != 1:
        raise ValueError(
            f"jobs must be 1, got {jobs}: the sweep process pool is retired "
            "and every search runs in-process"
        )

    if candidates is None:
        candidates = enumerate_parameter_space(log_n=design.params.log_n)
    # Materialise exactly once: a generator consumed here must not be
    # silently exhausted (or half-exhausted) for the caller — and the
    # sweep axes need a concrete, canonically ordered tuple anyway.
    candidate_tuple = tuple(candidates)
    if not candidate_tuple:
        return []
    spec = SweepSpec(
        name="table5-search",
        evaluator="search.candidate",
        axes=(SweepAxis("params", candidate_tuple),),
        context={
            "design": design,
            "config": config,
            "enforce_cache": enforce_cache,
        },
    )
    outcome = run_sweep(spec)
    # sorted(...)[:top], holding ``top`` ranking keys instead of one per
    # candidate on top of the results.
    return heapq.nsmallest(top, outcome.values, key=ranking_key)
