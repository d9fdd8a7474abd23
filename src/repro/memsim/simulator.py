"""Trace replay through a simulated on-chip memory.

Cache semantics (chosen to mirror the analytical model's counting
conventions — see DESIGN.md §7):

* **Fully associative**, block = one limb (``trace.block_bytes``), with
  ``capacity_blocks = capacity_bytes // block_bytes`` — the *same* floor
  division as :meth:`repro.perf.cache.CacheModel.capacity_limbs`, so the
  simulator and the analytical thresholds agree on what "32 MB" holds.
* **Reads allocate.**  A read miss fetches the block from DRAM (counted
  on its stream) and inserts it.
* **Writes are write-through and do not allocate** unless the schedule
  marked the block ``resident``.  Every write pass the analytical model
  counts therefore costs exactly its bytes in simulation too; pass
  intermediates written without residency come back from DRAM when the
  next pass reads them — precisely how the per-pass formulas count.
* **Key and plaintext streams bypass the cache** (``BulkAccess``): the
  paper's caching optimizations never touch key reads, so the simulator
  accounts them without occupying capacity.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional

from repro.memsim.accounting import DramCounters, SimStats
from repro.memsim.policies import NEVER, ReplacementPolicy, make_policy
from repro.memsim.trace import (
    READ,
    SCRATCH,
    Access,
    BulkAccess,
    FlushEvent,
    PinEvent,
    Trace,
)
from repro.obs import state as obs
from repro.perf.events import MemTraffic

__all__ = ["MemorySimulator", "SimResult"]


@dataclass(frozen=True)
class SimResult:
    """Outcome of replaying one trace: DRAM bytes plus cache behaviour."""

    traffic: MemTraffic
    stats: SimStats
    capacity_blocks: int
    block_bytes: int
    policy: str

    @property
    def pin_failures(self) -> int:
        return self.stats.pin_failures


def _next_read_indices(trace: Trace) -> List[float]:
    """For each event index, the index of the next read of its block.

    Only block-granular reads count as uses (a write-through write gains
    nothing from residency).  Events that are not block reads get
    :data:`~repro.memsim.policies.NEVER` placeholders so indices align.
    """
    next_use: List[float] = [NEVER] * len(trace.events)
    last_read: Dict[int, int] = {}
    for index in range(len(trace.events) - 1, -1, -1):
        event = trace.events[index]
        if isinstance(event, Access):
            next_use[index] = last_read.get(event.block, NEVER)
            if event.kind == READ:
                last_read[event.block] = index
    return next_use


class MemorySimulator:
    """Replays traces through one policy at one capacity."""

    def __init__(
        self,
        capacity_bytes: int,
        policy: Optional[ReplacementPolicy] = None,
    ):
        if capacity_bytes < 0:
            raise ValueError(
                f"capacity must be non-negative, got {capacity_bytes}"
            )
        # Geometry, not a cost total: set once, never accumulated.
        self.capacity_bytes = capacity_bytes
        self.policy = policy if policy is not None else make_policy("lru")

    def capacity_blocks(self, block_bytes: int) -> int:
        """Whole blocks the memory holds (CacheModel.capacity_limbs rule)."""
        return self.capacity_bytes // block_bytes

    # ------------------------------------------------------------------
    def replay(self, trace: Trace) -> SimResult:
        """Replay ``trace`` on a cold cache and return the DRAM traffic."""
        policy = self.policy
        capacity = self.capacity_blocks(trace.block_bytes)
        policy.reset(capacity)

        future: Optional[List[float]] = None
        if policy.needs_future:
            future = _next_read_indices(trace)

        counters = DramCounters()
        stats = SimStats()
        block_bytes = trace.block_bytes

        with obs.span(
            "memsim:replay",
            trace=trace.label,
            events=len(trace.events),
            policy=policy.name,
            capacity_blocks=capacity,
        ):
            for index, event in enumerate(trace.events):
                if isinstance(event, Access):
                    stats.accesses += 1
                    next_use = future[index] if future is not None else NEVER
                    if event.kind == READ:
                        if policy.contains(event.block):
                            stats.hits += 1
                            policy.touch(event.block, next_use)
                        else:
                            stats.misses += 1
                            counters.add_read(event.stream, block_bytes)
                            if event.allocate and (
                                policy.insert(event.block, next_use)
                                is not None
                            ):
                                stats.evictions += 1
                    elif event.kind == SCRATCH:
                        # On-chip accumulator: allocates, no DRAM traffic.
                        if policy.contains(event.block):
                            policy.touch(event.block, next_use)
                        elif (
                            policy.insert(event.block, next_use) is not None
                        ):
                            stats.evictions += 1
                    else:  # WRITE: write-through, allocate only if resident
                        counters.add_write(event.stream, block_bytes)
                        if policy.contains(event.block):
                            policy.touch(event.block, next_use)
                        elif event.resident:
                            if policy.insert(event.block, next_use) is not None:
                                stats.evictions += 1
                elif isinstance(event, BulkAccess):
                    if event.kind == READ:
                        counters.add_read(event.stream, event.nbytes)
                    else:
                        counters.add_write(event.stream, event.nbytes)
                elif isinstance(event, PinEvent):
                    if event.pin:
                        policy.pin(event.blocks)
                    else:
                        policy.unpin(event.blocks)
                elif isinstance(event, FlushEvent):
                    for block in event.blocks:
                        policy.discard(block)
                else:  # pragma: no cover - the event union is closed
                    raise TypeError(f"unknown trace event {event!r}")

            stats.pin_failures = policy.pin_failures
            traffic = counters.snapshot()
            obs.count("memsim.replay.accesses", stats.accesses)
            obs.count("memsim.replay.hits", stats.hits)
            obs.count("memsim.replay.misses", stats.misses)
            if obs.metrics_enabled():
                obs.gauge("memsim.replay.hit_rate", stats.hit_rate)

        return SimResult(
            traffic=traffic,
            stats=stats,
            capacity_blocks=capacity,
            block_bytes=trace.block_bytes,
            policy=policy.name,
        )
