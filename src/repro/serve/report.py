"""``serve_report.json`` (the :data:`SERVE_REPORT` schema).

One report captures a whole scenario run: the scenario identity
(name, seed, duration, pricing config), a provenance block
(:func:`repro.obs.schema.provenance`) and one entry per fleet holding
throughput, utilisation, batching efficiency, cost-per-request and the
per-tenant latency/SLA rows.  Every number in a fleet entry is a pure
function of ``(scenario, fleet, seed)`` — reports are byte-identical
across machines, processes and ``--jobs`` splits, which is what the CI
determinism gate asserts.
"""

from __future__ import annotations

import hashlib
import json
from typing import Any, Dict, Sequence

from repro.obs import schema
from repro.obs.schema import COUNT, NON_NEGATIVE, PROVENANCE, Schema, fields
from repro.serve.scenario import Scenario
from repro.serve.simulator import SimResult, TenantResult

__all__ = [
    "SERVE_REPORT",
    "assemble_serve_report",
    "build_serve_report",
    "fleet_row",
    "scenario_fingerprint",
    "tenant_row",
]

_STRING: Dict[str, Any] = {"type": "string"}
_FRACTION: Dict[str, Any] = {"type": "number", "minimum": 0, "maximum": 1}

SERVE_REPORT = Schema(
    "repro.serve/v1",
    {
        "title": "repro.serve scenario report",
        "type": "object",
        "required": [
            "provenance",
            "scenario",
            "seed",
            "duration_s",
            "config",
            "fingerprint",
            "fleets",
        ],
        "properties": {
            "provenance": PROVENANCE,
            "scenario": _STRING,
            "seed": COUNT,
            "duration_s": {"type": "number", "exclusiveMinimum": 0},
            "config": _STRING,
            "fingerprint": {"type": "string", "pattern": "^[0-9a-f]{64}$"},
            "fleets": {
                "type": "array",
                "minItems": 1,
                "items": {
                    "type": "object",
                    "required": [
                        "fleet",
                        "design",
                        "devices",
                        "scheduler",
                        "cache_policy",
                        "makespan_s",
                        "requests",
                        "throughput_rps",
                        "utilisation",
                        "batching",
                        "cost",
                        "tenants",
                    ],
                    "properties": {
                        "fleet": _STRING,
                        "design": _STRING,
                        "devices": {"type": "integer", "minimum": 1},
                        "scheduler": _STRING,
                        "cache_policy": _STRING,
                        "makespan_s": NON_NEGATIVE,
                        "requests": fields(COUNT, "offered", "completed", "bootstraps"),
                        "throughput_rps": NON_NEGATIVE,
                        "utilisation": _FRACTION,
                        "batching": {
                            "type": "object",
                            "required": [
                                "batches",
                                "mean_size",
                                "key_read_saved_fraction",
                            ],
                            "properties": {
                                "batches": COUNT,
                                "mean_size": NON_NEGATIVE,
                                "key_read_saved_fraction": _FRACTION,
                            },
                        },
                        "cost": fields(
                            NON_NEGATIVE,
                            "device_seconds_per_request",
                            "giga_ops_per_request",
                            "dram_gb_per_request",
                        ),
                        "tenants": {
                            "type": "array",
                            "minItems": 1,
                            "items": {
                                "type": "object",
                                "required": [
                                    "tenant",
                                    "offered",
                                    "completed",
                                    "bootstraps",
                                    "sla",
                                ],
                                "properties": {
                                    "tenant": _STRING,
                                    "offered": COUNT,
                                    "completed": COUNT,
                                    "bootstraps": COUNT,
                                    "latency": {
                                        "type": ["object", "null"],
                                        "required": [
                                            "count",
                                            "mean_ms",
                                            "p50_ms",
                                            "p99_ms",
                                        ],
                                    },
                                    "sla": {
                                        "type": "object",
                                        "properties": {
                                            "met": {"type": ["boolean", "null"]},
                                        },
                                    },
                                },
                            },
                        },
                    },
                },
            },
        },
    },
)


def scenario_fingerprint(scenario: Scenario, seed: int) -> str:
    """SHA-256 over the run identity (scenario, fleets, tenants, seed)."""
    identity = {
        "scenario": scenario.name,
        "seed": seed,
        "duration_s": scenario.duration_s,
        "config": scenario.config,
        "tenants": [tenant.name for tenant in scenario.tenants],
        "fleets": [
            [fleet.name, fleet.design.name, fleet.devices]
            for fleet in scenario.fleets
        ],
    }
    canonical = json.dumps(identity, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canonical.encode("utf-8")).hexdigest()


def tenant_row(result: TenantResult) -> Dict[str, Any]:
    """One tenant's JSON entry inside a fleet row."""
    row: Dict[str, Any] = {
        "tenant": result.tenant,
        "offered": result.offered,
        "completed": result.completed,
        "bootstraps": result.bootstraps,
        "latency": (
            result.latency.as_row() if result.latency is not None else None
        ),
        "giga_ops": result.cost.giga_ops(),
        "dram_gb": result.cost.gigabytes(),
        "sla": {
            "p99_target_ms": result.sla_p99_ms,
            "met": result.sla_met,
        },
    }
    return row


def fleet_row(result: SimResult) -> Dict[str, Any]:
    """One fleet's JSON entry in the report."""
    completed = max(result.completed, 1)
    return {
        "fleet": result.fleet,
        "design": result.design,
        "devices": result.devices,
        "scheduler": result.scheduler,
        "cache_policy": result.cache_policy,
        "makespan_s": result.makespan_s,
        "requests": {
            "offered": result.offered,
            "completed": result.completed,
            "bootstraps": result.bootstraps,
        },
        "throughput_rps": result.throughput_rps,
        "utilisation": result.utilisation,
        "batching": {
            "batches": result.batches,
            "mean_size": result.mean_batch_size,
            "key_read_saved_fraction": result.key_read_saved_fraction,
        },
        "cost": {
            "device_seconds_per_request": (
                result.busy_device_seconds / completed
            ),
            "giga_ops_per_request": result.total_cost.giga_ops() / completed,
            "dram_gb_per_request": result.total_cost.gigabytes() / completed,
        },
        "tenants": [tenant_row(tenant) for tenant in result.tenants],
    }


def assemble_serve_report(
    scenario: Scenario, seed: int, rows: Sequence[Dict[str, Any]]
) -> Dict[str, Any]:
    """The validated :data:`SERVE_REPORT` from prebuilt fleet rows.

    The sweep path (``serve.scenario`` evaluator) produces rows in
    worker processes; this assembles the identical report the serial
    path builds, so ``--jobs N`` output is byte-for-byte reproducible.
    """
    fingerprint = scenario_fingerprint(scenario, seed)
    report = {
        "schema": SERVE_REPORT.id,
        "provenance": schema.provenance(config_fingerprint=fingerprint),
        "scenario": scenario.name,
        "seed": seed,
        "duration_s": scenario.duration_s,
        "config": scenario.config,
        "fingerprint": fingerprint,
        "fleets": [
            {
                key: row[key]
                for key in sorted(row)
                if key not in ("scenario", "seed")
            }
            for row in rows
        ],
    }
    schema.validate(report, SERVE_REPORT)
    return report


def build_serve_report(
    scenario: Scenario, seed: int, results: Sequence[SimResult]
) -> Dict[str, Any]:
    """Assemble the :data:`SERVE_REPORT` for a finished scenario."""
    return assemble_serve_report(
        scenario, seed, [fleet_row(result) for result in results]
    )
