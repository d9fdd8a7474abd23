"""Baseline snapshot store and cost-regression comparison.

A *baseline* is a committed ``run_report.json`` (see
:mod:`repro.obs.export`) for one bench workload — one file per
workload × design × cache size under ``benchmarks/baselines/``.  Before
a baseline is written it is **normalized**: wall-clock fields are zeroed
so the committed fixture is deterministic (the analytical cost model is
exact integer arithmetic; timing is machine noise and is never gated).

:func:`compare_reports` gates the analytical totals — op counts and every
DRAM traffic stream — exactly: any growth is a regression, attributed
to the spans that caused it via :mod:`repro.obs.diff`.
"""

from __future__ import annotations

import copy
import json
import re
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Dict, List, Optional

from repro.obs import schema
from repro.obs.diff import diff_run_reports, render_attribution_table
from repro.obs.export import RUN_REPORT

#: Default directory of committed baselines, relative to the repo root.
DEFAULT_BASELINE_DIR = "benchmarks/baselines"

#: (label, section, key) triples gated by :func:`compare_reports`.
GATED_TOTALS = (
    ("ops.mults", "ops", "mults"),
    ("ops.adds", "ops", "adds"),
    ("ops.total", "ops", "total"),
    ("traffic.ct_read", "traffic", "ct_read"),
    ("traffic.ct_write", "traffic", "ct_write"),
    ("traffic.key_read", "traffic", "key_read"),
    ("traffic.pt_read", "traffic", "pt_read"),
    ("traffic.total", "traffic", "total"),
)


def baseline_key(
    workload: str,
    params: str,
    config: str,
    cache_mb: Optional[float] = None,
    design: Optional[str] = None,
) -> str:
    """Filename-safe identity of one baseline (workload × design × cache)."""
    parts = [workload, params, config]
    parts.append(f"cache{cache_mb:g}" if cache_mb else "nocache")
    if design:
        parts.append(design)
    slug = "__".join(parts).lower()
    return re.sub(r"[^a-z0-9_.-]+", "-", slug)


def normalize_report(report: Dict[str, Any]) -> Dict[str, Any]:
    """A deep copy with host-measurement fields removed (deterministic fixture).

    Wall-clock fields are zeroed and resource samples (run-level
    ``resources`` block, per-span ``meta.resource``) dropped — both are
    machine noise.  The ``provenance`` block is kept: it is what makes a
    committed baseline attributable to the commit that produced it.
    """
    normalized = copy.deepcopy(report)
    normalized["wall_seconds"] = 0.0
    if "resources" in normalized:
        normalized["resources"] = None
    for span in normalized.get("spans", ()):
        span["start_us"] = 0.0
        span["duration_us"] = 0.0
        meta = span.get("meta")
        if isinstance(meta, dict):
            meta.pop("resource", None)
    return normalized


class BaselineStore:
    """Load/save normalized run reports under a baselines directory."""

    def __init__(self, root: str = DEFAULT_BASELINE_DIR):
        self.root = Path(root)

    def path_for(self, key: str) -> Path:
        return self.root / f"{key}.json"

    def exists(self, key: str) -> bool:
        return self.path_for(key).is_file()

    def load(self, key: str) -> Optional[Dict[str, Any]]:
        return schema.load(self.path_for(key), RUN_REPORT)

    def save(self, key: str, report: Dict[str, Any]) -> Path:
        self.root.mkdir(parents=True, exist_ok=True)
        path = self.path_for(key)
        schema.write(normalize_report(report), RUN_REPORT, path)
        return path

    def keys(self) -> List[str]:
        if not self.root.is_dir():
            return []
        return sorted(p.stem for p in self.root.glob("*.json"))


@dataclass(frozen=True)
class Regression:
    """One gated metric that grew past its baseline."""

    metric: str
    base: int
    current: int

    def describe(self) -> str:
        rel = (self.current - self.base) / self.base if self.base else float("inf")
        return f"{self.metric}: {self.base:,} -> {self.current:,} ({rel:+.2%})"


@dataclass
class BenchComparison:
    """Outcome of comparing one run against its committed baseline."""

    workload: str
    regressions: List[Regression] = field(default_factory=list)
    improvements: List[str] = field(default_factory=list)
    diff: Optional[Dict[str, Any]] = None
    #: Ungated differences from the fixture (:func:`_metric_drift`).
    drift: List[str] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.regressions

    def describe(self) -> str:
        if self.ok:
            if self.improvements:
                headline = (
                    f"{self.workload}: ok "
                    f"(improved: {', '.join(self.improvements)})"
                )
            else:
                headline = f"{self.workload}: ok (costs unchanged)"
            return "\n".join([headline, *self._drift()])
        lines = [f"{self.workload}: REGRESSION"]
        lines += [f"  {r.describe()}" for r in self.regressions]
        if self.diff is not None:
            lines.append(render_attribution_table(self.diff, top=10))
        return "\n".join(lines)

    def _drift(self) -> List[str]:
        """Ungated differences from the fixture: metrics, span meta and costs."""
        if self.diff is None and not self.drift:
            return []
        lines = [f"  drift: {item}" for item in self.drift]
        if self.diff is not None and self.diff["spans"]:
            lines.append(f"  drift: {len(self.diff['spans'])} span entries differ")
        lines.append(
            "  the fixture is stale: refresh it with `python -m repro bench --update`"
        )
        return lines


def _shown(values: Dict[str, Any], name: str) -> str:
    if name not in values:
        return "absent"
    value = values[name]
    if isinstance(value, (int, float)) and not isinstance(value, bool):
        return f"{value:,}"
    return json.dumps(value, sort_keys=True)


def _changes(label: str, base: Dict[str, Any], other: Dict[str, Any]) -> List[str]:
    return [
        f"{label} {name} {_shown(base, name)} -> {_shown(other, name)}"
        for name in sorted(set(base) | set(other))
        if name not in base or name not in other or base[name] != other[name]
    ]


def _metric_drift(baseline: Dict[str, Any], current: Dict[str, Any]) -> List[str]:
    """Every ungated field where ``current`` differs from its fixture.

    ``current`` is compared as :func:`normalize_report` would commit it:
    each counter, gauge and histogram by name and value (a metric on one
    side only differs, even a zero counter), and the meta of every span
    path both reports hold.  Span costs are compared by
    :func:`~repro.obs.diff.diff_run_reports`.
    """
    current = normalize_report(current)
    base_metrics = baseline.get("metrics") or {}
    metrics = current.get("metrics") or {}
    changes: List[str] = []
    for kind in ("counters", "gauges", "histograms"):
        changes += _changes(
            kind[:-1], base_metrics.get(kind) or {}, metrics.get(kind) or {}
        )
    base_meta = {
        span["path"]: span.get("meta") or {} for span in baseline.get("spans", ())
    }
    for span in current.get("spans", ()):
        if span["path"] in base_meta:
            changes += _changes(
                f"span {span['path']} meta",
                base_meta[span["path"]],
                span.get("meta") or {},
            )
    return changes


def compare_reports(
    baseline: Dict[str, Any], current: Dict[str, Any]
) -> BenchComparison:
    """Gate ``current`` against ``baseline`` on every analytical total.

    Costs are exact integers, so a total above its baseline is a
    regression.  Wall-clock time is deliberately not gated
    (report-only); the span attribution of any delta comes from
    :func:`~repro.obs.diff.diff_run_reports` and is included in the
    result for rendering.
    """
    base_totals = baseline.get("totals", {})
    cur_totals = current.get("totals", {})
    regressions: List[Regression] = []
    improvements: List[str] = []
    for label, section, key in GATED_TOTALS:
        base_value = int(base_totals.get(section, {}).get(key, 0))
        cur_value = int(cur_totals.get(section, {}).get(key, 0))
        if cur_value > base_value:
            regressions.append(Regression(label, base_value, cur_value))
        elif cur_value < base_value:
            improvements.append(label)

    comparison = BenchComparison(
        workload=current.get("workload", "") or baseline.get("workload", ""),
        regressions=regressions,
        improvements=improvements,
        drift=_metric_drift(baseline, current),
    )
    diff = diff_run_reports(baseline, current, require_same_workload=False)
    if not diff["identical"]:
        comparison.diff = diff
    return comparison
