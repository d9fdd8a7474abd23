"""Cost-accounting primitives: operation counts and DRAM traffic streams."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable, Tuple


@dataclass(frozen=True, slots=True)
class OpCount:
    """Modular-arithmetic operation counts.

    ``mults`` and ``adds`` count word-sized modular multiplications and
    additions/subtractions.  Automorphisms move data without arithmetic and
    therefore cost zero (matching the Automorph column of Table 4).
    """

    mults: int = 0
    adds: int = 0

    @classmethod
    def from_dict(cls, data: dict) -> "OpCount":
        """Inverse of :func:`repro.obs.export.ops_dict` (``total`` ignored)."""
        return cls(mults=int(data.get("mults", 0)), adds=int(data.get("adds", 0)))

    @property
    def total(self) -> int:
        return self.mults + self.adds

    def __add__(self, other: "OpCount") -> "OpCount":
        return OpCount(self.mults + other.mults, self.adds + other.adds)

    def __radd__(self, other) -> "OpCount":
        # Lets builtin ``sum(counts)`` work (it starts from the int 0).
        if other == 0:
            return self
        return NotImplemented

    def scaled(self, factor: int) -> "OpCount":
        if factor < 0:
            raise ValueError(f"factor must be non-negative, got {factor}")
        return OpCount(self.mults * factor, self.adds * factor)


@dataclass(frozen=True, slots=True)
class MemTraffic:
    """DRAM traffic in bytes, broken down by stream.

    The split matters: the paper's Figures 2 and 3 track ciphertext limb
    reads, ciphertext limb writes, and switching-key reads separately
    (caching optimizations cannot touch key reads; key compression only
    touches key reads).
    """

    ct_read: int = 0
    ct_write: int = 0
    key_read: int = 0
    pt_read: int = 0

    @classmethod
    def from_dict(cls, data: dict) -> "MemTraffic":
        """Inverse of :func:`repro.obs.export.traffic_dict` (``total`` ignored)."""
        return cls(
            ct_read=int(data.get("ct_read", 0)),
            ct_write=int(data.get("ct_write", 0)),
            key_read=int(data.get("key_read", 0)),
            pt_read=int(data.get("pt_read", 0)),
        )

    @property
    def total(self) -> int:
        return self.ct_read + self.ct_write + self.key_read + self.pt_read

    def __add__(self, other: "MemTraffic") -> "MemTraffic":
        return MemTraffic(
            self.ct_read + other.ct_read,
            self.ct_write + other.ct_write,
            self.key_read + other.key_read,
            self.pt_read + other.pt_read,
        )

    def __radd__(self, other) -> "MemTraffic":
        # Lets builtin ``sum(streams)`` work (it starts from the int 0).
        if other == 0:
            return self
        return NotImplemented

    def scaled(self, factor: int) -> "MemTraffic":
        if factor < 0:
            raise ValueError(f"factor must be non-negative, got {factor}")
        return MemTraffic(
            self.ct_read * factor,
            self.ct_write * factor,
            self.key_read * factor,
            self.pt_read * factor,
        )


@dataclass(frozen=True, slots=True)
class CostReport:
    """Combined compute + traffic cost of an operation or pipeline."""

    ops: OpCount = field(default_factory=OpCount)
    traffic: MemTraffic = field(default_factory=MemTraffic)

    @classmethod
    def from_dict(cls, data: dict) -> "CostReport":
        """Inverse of :func:`repro.obs.export.cost_dict`."""
        return cls(
            ops=OpCount.from_dict(data.get("ops") or {}),
            traffic=MemTraffic.from_dict(data.get("traffic") or {}),
        )

    def __add__(self, other: "CostReport") -> "CostReport":
        return CostReport(self.ops + other.ops, self.traffic + other.traffic)

    def __radd__(self, other) -> "CostReport":
        # Lets builtin ``sum(costs)`` work (it starts from the int 0).
        if other == 0:
            return self
        return NotImplemented

    def scaled(self, factor: int) -> "CostReport":
        return CostReport(self.ops.scaled(factor), self.traffic.scaled(factor))

    @classmethod
    def weighted_sum(
        cls, terms: Iterable[Tuple["CostReport", int]]
    ) -> "CostReport":
        """``sum(cost.scaled(count) for cost, count in terms)`` in plain ints.

        This is how the model prices a sub-operation it repeats ``count``
        times: evaluate it once and weight it.  One fresh report is built;
        a count of 0 adds nothing, a negative count raises ``ValueError``
        (as :meth:`scaled` does), and no terms give a zero report.
        """
        mults = adds = ct_read = ct_write = key_read = pt_read = 0
        for cost, count in terms:
            if count < 0:
                raise ValueError(f"count must be non-negative, got {count}")
            ops, traffic = cost.ops, cost.traffic
            mults += ops.mults * count
            adds += ops.adds * count
            ct_read += traffic.ct_read * count
            ct_write += traffic.ct_write * count
            key_read += traffic.key_read * count
            pt_read += traffic.pt_read * count
        return cls(
            OpCount(mults, adds),
            MemTraffic(ct_read, ct_write, key_read, pt_read),
        )

    @property
    def arithmetic_intensity(self) -> float:
        """Ops per byte of DRAM traffic — the roofline x-axis."""
        if self.traffic.total == 0:
            return float("inf") if self.ops.total else 0.0
        return self.ops.total / self.traffic.total

    def giga_ops(self) -> float:
        return self.ops.total / 1e9

    def gigabytes(self) -> float:
        return self.traffic.total / 1e9
