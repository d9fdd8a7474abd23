"""Roofline runtime estimation.

Following Section 4.2 of the paper: compute latency is the operation count
divided by the parallel modular-arithmetic throughput (multiplier count x
frequency), memory latency is total DRAM bytes divided by bandwidth, and —
since DRAM transfer and compute overlap on every platform modelled — the
runtime is the maximum of the two.  Whichever term wins classifies the
design as compute- or memory-bound.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.obs import state as obs
from repro.perf.events import CostReport
from repro.hardware.design import HardwareDesign


@dataclass(frozen=True, slots=True)
class RuntimeEstimate:
    """Roofline runtime of a workload on a design."""

    compute_seconds: float
    memory_seconds: float

    @property
    def seconds(self) -> float:
        return max(self.compute_seconds, self.memory_seconds)

    @property
    def milliseconds(self) -> float:
        return self.seconds * 1e3

    @property
    def bound(self) -> str:
        """Which resource limits this design: 'compute' or 'memory'."""
        return (
            "compute"
            if self.compute_seconds >= self.memory_seconds
            else "memory"
        )

    @property
    def balance(self) -> float:
        """compute/memory time ratio; 1.0 is a perfectly balanced design."""
        if self.memory_seconds == 0:
            return float("inf")
        return self.compute_seconds / self.memory_seconds


def estimate_runtime(
    cost: CostReport, design: HardwareDesign
) -> RuntimeEstimate:
    """Roofline runtime of ``cost`` on ``design``.

    When a span is open on the global tracer (:mod:`repro.obs`) the
    estimate is attached to it as metadata, attributing compute-bound vs
    memory-bound time to whatever the span measures.

    Raises :class:`ValueError` (naming the design and the degenerate
    rate) instead of :class:`ZeroDivisionError` when a design slips
    through construction with a non-positive roofline rate — e.g. a
    ``dataclasses.replace`` bypassing no validation but a hand-built
    object with ``__post_init__`` monkeypatched away, or a subclass
    overriding the rate properties.
    """
    compute_rate = design.compute_ops_per_second
    memory_rate = design.bandwidth_bytes_per_second
    if not compute_rate > 0:
        raise ValueError(
            f"cannot estimate runtime on design {design.name!r}: "
            f"compute_ops_per_second is {compute_rate!r}, not positive"
        )
    if not memory_rate > 0:
        raise ValueError(
            f"cannot estimate runtime on design {design.name!r}: "
            f"bandwidth_bytes_per_second is {memory_rate!r}, not positive"
        )
    compute = cost.ops.total / compute_rate
    memory = cost.traffic.total / memory_rate
    estimate = RuntimeEstimate(compute_seconds=compute, memory_seconds=memory)
    obs.count("hardware.runtime.estimates")
    if obs.tracing_enabled():
        obs.annotate(
            design=design.name,
            compute_seconds=compute,
            memory_seconds=memory,
            bound=estimate.bound,
        )
    return estimate
