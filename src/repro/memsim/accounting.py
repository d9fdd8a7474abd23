"""DRAM-traffic accounting for the memory simulator.

This module is the **only** place in :mod:`repro.memsim` where raw byte
counters are accumulated — the ``TraceDiscipline`` rule in
``tests/test_invariants.py`` (and the ``LedgerDiscipline`` allowance for
this file) confine ``*_bytes`` arithmetic here, mirroring how
:mod:`repro.perf.events` is the sole accounting core of the analytical
model.  Everything else in the package consumes the finished
:class:`repro.perf.events.MemTraffic` snapshot.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.perf.events import MemTraffic

__all__ = ["DramCounters", "SimStats"]


@dataclass
class SimStats:
    """Cache-behaviour tallies of one replay (event counts, not bytes)."""

    accesses: int = 0
    hits: int = 0
    misses: int = 0
    evictions: int = 0
    pin_failures: int = 0

    @property
    def hit_rate(self) -> float:
        return self.hits / self.accesses if self.accesses else 0.0


class DramCounters:
    """Per-stream DRAM byte counters filled during trace replay."""

    def __init__(self) -> None:
        self.ct_read_bytes = 0
        self.ct_write_bytes = 0
        self.key_read_bytes = 0
        self.pt_read_bytes = 0

    def add_read(self, stream: str, nbytes: int) -> None:
        if nbytes < 0:
            raise ValueError(f"negative read size {nbytes}")
        if stream == "ct":
            self.ct_read_bytes += nbytes
        elif stream == "key":
            self.key_read_bytes += nbytes
        elif stream == "pt":
            self.pt_read_bytes += nbytes
        else:
            raise ValueError(f"unknown stream {stream!r}")

    def add_write(self, stream: str, nbytes: int) -> None:
        if nbytes < 0:
            raise ValueError(f"negative write size {nbytes}")
        if stream != "ct":
            # The model has no key/pt write streams; a schedule emitting
            # one is a bug we want loud, not silently misfiled.
            raise ValueError(f"writes are ciphertext-stream only, got {stream!r}")
        self.ct_write_bytes += nbytes

    def snapshot(self) -> MemTraffic:
        """The counters as the analytical model's traffic type."""
        return MemTraffic(
            ct_read=self.ct_read_bytes,
            ct_write=self.ct_write_bytes,
            key_read=self.key_read_bytes,
            pt_read=self.pt_read_bytes,
        )
