"""Labeled cost accounting: where do the ops and bytes actually go?

A :class:`CostLedger` is an ordered collection of named
:class:`~repro.perf.events.CostReport` components.  The bootstrap model
can emit one at sub-operation granularity, which is how you answer
questions like "what fraction of DRAM traffic is switching keys during
CoeffToSlot?" without re-deriving the model.
"""

from __future__ import annotations

from typing import Dict, Iterator, List, Tuple

from repro.perf.events import CostReport


class CostLedger:
    """Ordered, labeled cost components that sum to a total."""

    def __init__(self):
        self._entries: List[Tuple[str, CostReport]] = []

    def add(self, label: str, cost: CostReport) -> None:
        if not label:
            raise ValueError("component label must be non-empty")
        self._entries.append((label, cost))

    def __len__(self) -> int:
        return len(self._entries)

    def __iter__(self) -> Iterator[Tuple[str, CostReport]]:
        return iter(self._entries)

    @property
    def total(self) -> CostReport:
        return CostReport.weighted_sum((cost, 1) for _, cost in self._entries)

    def by_label(self) -> Dict[str, CostReport]:
        """Components merged by label (labels may repeat across phases)."""
        merged: Dict[str, CostReport] = {}
        for label, cost in self._entries:
            merged[label] = merged.get(label, CostReport()) + cost
        return merged

    def traffic_fraction(self, label: str) -> float:
        """Fraction of total DRAM traffic attributed to ``label``.

        Raises KeyError for labels with no component, even when the ledger
        carries no traffic at all.
        """
        component = self.by_label().get(label)
        if component is None:
            raise KeyError(f"no component labeled {label!r}")
        total = self.total.traffic.total
        if total == 0:
            return 0.0
        return component.traffic.total / total

    def ops_fraction(self, label: str) -> float:
        """Fraction of total compute attributed to ``label``.

        Raises KeyError for labels with no component, even when the ledger
        counts no operations at all.
        """
        component = self.by_label().get(label)
        if component is None:
            raise KeyError(f"no component labeled {label!r}")
        total = self.total.ops.total
        if total == 0:
            return 0.0
        return component.ops.total / total

    _LABEL_WIDTH = 24

    @classmethod
    def _fit(cls, label: str) -> str:
        """Truncate long labels so table columns stay aligned."""
        width = cls._LABEL_WIDTH
        if len(label) <= width:
            return label
        return label[: width - 1] + "…"

    def render(self) -> str:
        width = self._LABEL_WIDTH
        header = (
            f"{'Component':{width}} {'Gops':>9} {'GB':>8} {'AI':>6} "
            f"{'Ops%':>7} {'GB%':>7}"
        )
        lines = [header, "-" * len(header)]
        total = self.total
        for label, cost in self.by_label().items():
            lines.append(
                f"{self._fit(label):{width}} {cost.giga_ops():9.2f} "
                f"{cost.gigabytes():8.2f} {cost.arithmetic_intensity:6.2f} "
                f"{self.ops_fraction(label):7.1%} "
                f"{self.traffic_fraction(label):7.1%}"
            )
        lines.append("-" * len(header))
        lines.append(
            f"{'Total':{width}} {total.giga_ops():9.2f} "
            f"{total.gigabytes():8.2f} {total.arithmetic_intensity:6.2f} "
            f"{1.0 if total.ops.total else 0.0:7.1%} "
            f"{1.0 if total.traffic.total else 0.0:7.1%}"
        )
        return "\n".join(lines)
