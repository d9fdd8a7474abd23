"""``repro.serve`` — discrete-event multi-tenant FHE serving simulator.

The cost model answers "what does one bootstrap cost on this design?";
this package answers the operator's question: *how many of which
accelerator do I need to serve this tenant mix at my SLA?*  Seeded
arrival processes (:mod:`~repro.serve.arrivals`) generate per-tenant
request streams; a virtual-clock event heap
(:mod:`~repro.serve.simulator`) schedules them onto a fleet under a
pluggable discipline (:mod:`~repro.serve.schedulers`), forming
same-parameter batches that amortize switching-key traffic
(:mod:`~repro.serve.batching`) and pricing every dispatch through the
existing :class:`~repro.perf.events.CostReport` pipeline under each
tenant's cache slice (:mod:`~repro.serve.partition`).  Results land in
a ``serve_report.json`` (:mod:`~repro.serve.report`) with
per-tenant p50/p99/p999 latency, throughput, fleet utilisation,
batching efficiency and cost-per-request.

Everything is a pure function of ``(scenario, fleet, seed)``: no wall
clock (SimClockDiscipline enforces this), no ambient RNG (all entropy
lives in :mod:`~repro.serve.arrivals` behind SHA-512 string seeding),
so the ``serve.scenario`` sweep evaluator reproduces bit-identically
under any ``--jobs`` split.
"""

from repro.serve.arrivals import (
    ARRIVAL_SHAPES,
    ArrivalProcess,
    arrival_times,
    tenant_arrivals,
)
from repro.serve.batching import (
    BatchPolicy,
    batch_key,
    batched_cost,
    key_reads_saved,
)
from repro.serve.partition import CACHE_POLICIES, partition_cache
from repro.serve.report import (
    SERVE_REPORT,
    assemble_serve_report,
    build_serve_report,
    fleet_row,
    scenario_fingerprint,
    tenant_row,
)
from repro.serve.requests import (
    KIND_LEVELS,
    PricingCatalog,
    Request,
    TenantSpec,
    WORKLOAD_KINDS,
    price_kind,
)
from repro.serve.scenario import (
    FLEET_PRESETS,
    FleetSpec,
    SCENARIOS,
    Scenario,
    fleet_with,
    run_scenario,
    simulate_fleet,
)
from repro.serve.schedulers import SCHEDULER_NAMES, Scheduler, make_scheduler
from repro.serve.simulator import SimResult, TenantResult, simulate
from repro.serve.stats import (
    LatencySummary,
    percentile,
    summarize_latencies,
)

__all__ = [
    "ARRIVAL_SHAPES",
    "ArrivalProcess",
    "BatchPolicy",
    "CACHE_POLICIES",
    "FLEET_PRESETS",
    "FleetSpec",
    "KIND_LEVELS",
    "LatencySummary",
    "PricingCatalog",
    "Request",
    "SCENARIOS",
    "SCHEDULER_NAMES",
    "SERVE_REPORT",
    "Scenario",
    "Scheduler",
    "SimResult",
    "TenantResult",
    "TenantSpec",
    "WORKLOAD_KINDS",
    "arrival_times",
    "assemble_serve_report",
    "batch_key",
    "batched_cost",
    "build_serve_report",
    "fleet_row",
    "fleet_with",
    "key_reads_saved",
    "make_scheduler",
    "partition_cache",
    "percentile",
    "price_kind",
    "run_scenario",
    "scenario_fingerprint",
    "simulate",
    "simulate_fleet",
    "summarize_latencies",
    "tenant_arrivals",
    "tenant_row",
]
