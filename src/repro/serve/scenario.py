"""Named serving scenarios and fleet presets.

A *scenario* is the workload side of a capacity-planning question: a
tenant mix (arrival laws, workload mixes, fairness weights, SLA
targets) plus a simulated duration.  A *fleet* is the supply side: one
of the paper's Table 6 accelerators (or its MAD counterpart), a device
count, a scheduler and a cache-partition policy.  Scenarios and fleets
are registered by name so sweep grid points and CLI invocations can
reference them as plain strings — the sweep context stays JSON-pure
and the heavy objects are resolved inside the evaluator.

The ``mixed`` scenario is the flagship: an interactive primitive tenant,
a bursty ML-application tenant and a diurnal batch tenant, served by
BTS, CraterLake and BTS's 32 MB MAD counterpart.  ``micro`` is a
seconds-long two-tenant primitive-only run used by the bench harness
and fast tests.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Dict, List, Tuple

from repro.hardware.design import HardwareDesign
from repro.hardware.designs import BTS, CRATERLAKE, mad_counterpart
from repro.perf import CONFIGS
from repro.serve.arrivals import ArrivalProcess
from repro.serve.batching import BatchPolicy
from repro.serve.requests import TenantSpec
from repro.serve.simulator import SimResult, simulate

__all__ = [
    "FLEET_PRESETS",
    "FleetSpec",
    "SCENARIOS",
    "Scenario",
    "fleet_with",
    "run_scenario",
    "simulate_fleet",
]

@dataclass(frozen=True)
class FleetSpec:
    """One homogeneous accelerator fleet serving a scenario."""

    name: str
    design: HardwareDesign
    devices: int = 2
    scheduler: str = "fifo"
    cache_policy: str = "equal"
    batch: BatchPolicy = BatchPolicy()

    def __post_init__(self) -> None:
        if not self.name:
            raise ValueError("fleet name must be non-empty")
        if self.devices < 1:
            raise ValueError("fleet devices must be >= 1")


@dataclass(frozen=True)
class Scenario:
    """A named tenant mix over a simulated horizon."""

    name: str
    duration_s: float
    tenants: Tuple[TenantSpec, ...]
    fleets: Tuple[FleetSpec, ...]
    config: str = "all"  # key into repro.perf.CONFIGS

    def __post_init__(self) -> None:
        if self.duration_s <= 0:
            raise ValueError("duration_s must be positive")
        if not self.tenants:
            raise ValueError("a scenario needs at least one tenant")
        if not self.fleets:
            raise ValueError("a scenario needs at least one fleet")
        if self.config not in CONFIGS:
            raise ValueError(
                f"unknown config {self.config!r}; "
                f"choose from {', '.join(sorted(CONFIGS))}"
            )


_INTERACTIVE = TenantSpec(
    name="interactive",
    arrival=ArrivalProcess(shape="poisson", rate_per_s=40.0),
    mix=(("mult", 3.0), ("rotate", 2.0), ("key_switch", 1.0)),
    weight=3.0,
    level_budget=8,
    sla_p99_ms=50.0,
)

_ANALYTICS = TenantSpec(
    name="analytics",
    arrival=ArrivalProcess(
        shape="bursty", rate_per_s=0.5, burst_factor=4.0, burst_fraction=0.2
    ),
    mix=(("helr", 2.0), ("resnet", 1.0)),
    weight=1.0,
    level_budget=12,
    sla_p99_ms=None,
)

_BATCH = TenantSpec(
    name="batch",
    arrival=ArrivalProcess(
        shape="diurnal", rate_per_s=20.0, period_s=10.0, amplitude=0.8
    ),
    mix=(("mult", 1.0), ("rotate", 1.0)),
    weight=1.0,
    level_budget=6,
    sla_p99_ms=200.0,
)

#: Named fleet configurations capacity sweeps and scenarios reference.
FLEET_PRESETS: Dict[str, FleetSpec] = {
    fleet.name: fleet
    for fleet in (
        FleetSpec(
            name="bts-wfq",
            design=BTS,
            devices=2,
            scheduler="wfq",
            cache_policy="weighted",
            batch=BatchPolicy(window_s=0.01, max_batch=8),
        ),
        FleetSpec(
            name="craterlake-sjf",
            design=CRATERLAKE,
            devices=2,
            scheduler="sjf",
            cache_policy="equal",
            batch=BatchPolicy(window_s=0.01, max_batch=8),
        ),
        FleetSpec(
            name="bts-mad-fifo",
            design=mad_counterpart(BTS),
            devices=2,
            scheduler="fifo",
            cache_policy="shared",
            batch=BatchPolicy(window_s=0.01, max_batch=8),
        ),
        FleetSpec(
            name="bts-micro",
            design=BTS,
            devices=1,
            scheduler="fifo",
            cache_policy="equal",
            batch=BatchPolicy(window_s=0.001, max_batch=4),
        ),
    )
}

#: Registered scenarios, by name.
SCENARIOS: Dict[str, Scenario] = {
    scenario.name: scenario
    for scenario in (
        Scenario(
            name="mixed",
            duration_s=20.0,
            tenants=(_INTERACTIVE, _ANALYTICS, _BATCH),
            fleets=(
                FLEET_PRESETS["bts-wfq"],
                FLEET_PRESETS["craterlake-sjf"],
                FLEET_PRESETS["bts-mad-fifo"],
            ),
        ),
        Scenario(
            name="micro",
            duration_s=2.0,
            tenants=(
                TenantSpec(
                    name="alpha",
                    arrival=ArrivalProcess(shape="poisson", rate_per_s=30.0),
                    mix=(("mult", 2.0), ("rotate", 1.0)),
                    weight=2.0,
                    level_budget=6,
                    sla_p99_ms=25.0,
                ),
                TenantSpec(
                    name="beta",
                    arrival=ArrivalProcess(
                        shape="bursty", rate_per_s=20.0, burst_factor=3.0
                    ),
                    mix=(("key_switch", 1.0), ("mult", 1.0)),
                    weight=1.0,
                    level_budget=8,
                ),
            ),
            fleets=(FLEET_PRESETS["bts-micro"],),
        ),
    )
}


def simulate_fleet(
    scenario: Scenario, fleet: FleetSpec, seed: int
) -> SimResult:
    """Run one fleet of ``scenario`` to completion."""
    return simulate(
        fleet_name=fleet.name,
        design=fleet.design,
        devices=fleet.devices,
        tenants=scenario.tenants,
        duration_s=scenario.duration_s,
        seed=seed,
        scenario=scenario.name,
        config=CONFIGS[scenario.config],
        scheduler=fleet.scheduler,
        cache_policy=fleet.cache_policy,
        batch=fleet.batch,
    )


def run_scenario(scenario: Scenario, seed: int) -> List[SimResult]:
    """Run every fleet of ``scenario``; results in fleet order."""
    return [
        simulate_fleet(scenario, fleet, seed) for fleet in scenario.fleets
    ]


def fleet_with(
    fleet: FleetSpec, *, devices: int = 0, cache_policy: str = ""
) -> FleetSpec:
    """``fleet`` with sweep-axis overrides (zero/empty keeps the preset)."""
    updated = fleet
    if devices:
        updated = replace(updated, devices=devices)
    if cache_policy:
        updated = replace(updated, cache_policy=cache_policy)
    return updated
