"""repro.memsim — trace-driven memory-hierarchy simulation.

The package closes the loop on the analytical DRAM-traffic model: the
paper's per-pass formulas (:mod:`repro.perf`) *claim* what each MAD
optimization level moves to and from DRAM; this package *checks* those
claims by generating limb-granularity access traces for each primitive
(:mod:`repro.memsim.schedules`), replaying them through a simulated
on-chip memory with pluggable replacement policies
(:mod:`repro.memsim.simulator`, :mod:`repro.memsim.policies`) and
differentially comparing the simulated per-stream bytes against the
analytical totals (:mod:`repro.memsim.validate`).

Entry point: ``python -m repro memsim [--json]``.
"""

from repro.memsim.accounting import DramCounters, SimStats
from repro.memsim.policies import (
    POLICIES,
    BeladyPolicy,
    LRUPolicy,
    PinAwarePolicy,
    ReplacementPolicy,
    make_policy,
)
from repro.memsim.schedules import (
    PRIMITIVES,
    Schedule,
    ScheduleBuilder,
    ScheduleUnit,
)
from repro.memsim.simulator import MemorySimulator, SimResult
from repro.memsim.trace import (
    Access,
    Buffer,
    BulkAccess,
    FlushEvent,
    PinEvent,
    Trace,
    TraceRecorder,
)
from repro.memsim.validate import (
    DEFAULT_TOLERANCE,
    EXPECTED_FIT_BREAKS,
    LADDER_PRIMITIVES,
    LADDER_RUNS,
    MEMSIM_REPORT,
    compare_traffic,
    render_report,
    run_validation,
    validate_primitive,
)

__all__ = [
    "Access",
    "BeladyPolicy",
    "Buffer",
    "BulkAccess",
    "DEFAULT_TOLERANCE",
    "DramCounters",
    "EXPECTED_FIT_BREAKS",
    "FlushEvent",
    "LADDER_PRIMITIVES",
    "LADDER_RUNS",
    "LRUPolicy",
    "MEMSIM_REPORT",
    "MemorySimulator",
    "POLICIES",
    "PRIMITIVES",
    "PinAwarePolicy",
    "PinEvent",
    "ReplacementPolicy",
    "Schedule",
    "ScheduleBuilder",
    "ScheduleUnit",
    "SimResult",
    "SimStats",
    "Trace",
    "TraceRecorder",
    "compare_traffic",
    "make_policy",
    "render_report",
    "run_validation",
    "validate_primitive",
]
