"""Regenerate the data series behind Figures 1, 2, 3 and 6."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence

from repro.params import BASELINE_JUNG, MAD_OPTIMAL, CkksParams
from repro.perf import (
    ALGORITHMIC_LADDER,
    CACHING_LADDER,
    BootstrapModel,
    CacheModel,
    MADConfig,
    PrimitiveCosts,
)
from repro.hardware import HardwareDesign, mad_counterpart
from repro.hardware.runtime import estimate_runtime
from repro.apps import ApplicationWorkload, workload_cost


# ----------------------------------------------------------------------
# Figure 1: Rotate limb transfers, naive vs O(1) caching
# ----------------------------------------------------------------------
def generate_fig1(params: CkksParams = BASELINE_JUNG) -> Dict[str, float]:
    """Limb reads+writes of one Rotate: naive vs O(1)-limb caching.

    The paper's example: 35-limb ciphertext, naive 105+105 transfers on the
    fused prefix, O(1) caching 35+35.
    """
    limbs = params.max_limbs
    limb = params.limb_bytes
    naive = PrimitiveCosts(params, MADConfig.none()).rotate(limbs)
    cached = PrimitiveCosts(params, MADConfig(cache_o1=True)).rotate(limbs)
    return {
        "limbs": limbs,
        "naive_reads": naive.traffic.ct_read / limb,
        "naive_writes": naive.traffic.ct_write / limb,
        "cached_reads": cached.traffic.ct_read / limb,
        "cached_writes": cached.traffic.ct_write / limb,
        "saved_mb": (naive.traffic.total - cached.traffic.total) / 1e6,
    }


# ----------------------------------------------------------------------
# Figure 2: cumulative caching optimizations on bootstrapping DRAM
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class Fig2Point:
    label: str
    dram_gb: float
    ct_read_gb: float
    ct_write_gb: float
    key_read_gb: float
    reduction_vs_baseline: float


def generate_fig2(params: CkksParams = BASELINE_JUNG) -> List[Fig2Point]:
    points: List[Fig2Point] = []
    baseline_total: Optional[float] = None
    for label, config in CACHING_LADDER:
        traffic = BootstrapModel(params, config).total_cost().traffic
        if baseline_total is None:
            baseline_total = traffic.total
        points.append(
            Fig2Point(
                label=label,
                dram_gb=traffic.total / 1e9,
                ct_read_gb=traffic.ct_read / 1e9,
                ct_write_gb=traffic.ct_write / 1e9,
                key_read_gb=traffic.key_read / 1e9,
                reduction_vs_baseline=1 - traffic.total / baseline_total,
            )
        )
    return points


# ----------------------------------------------------------------------
# Figure 3: cumulative algorithmic optimizations
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class Fig3Point:
    label: str
    giga_ops: float
    ct_dram_gb: float
    key_read_gb: float
    arithmetic_intensity: float


def generate_fig3(params: CkksParams = MAD_OPTIMAL) -> List[Fig3Point]:
    """The paper evaluates Fig. 3 at the best-case (Table 5) parameters."""
    points = []
    for label, config in ALGORITHMIC_LADDER:
        cost = BootstrapModel(params, config).total_cost()
        points.append(
            Fig3Point(
                label=label,
                giga_ops=cost.giga_ops(),
                ct_dram_gb=(cost.traffic.ct_read + cost.traffic.ct_write)
                / 1e9,
                key_read_gb=cost.traffic.key_read / 1e9,
                arithmetic_intensity=cost.arithmetic_intensity,
            )
        )
    return points


# ----------------------------------------------------------------------
# Figure 6: ML applications across designs and cache sizes
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class Fig6Bar:
    label: str
    seconds: float
    bound: str
    speedup_vs_original: float


def _unpacked_penalty(design: HardwareDesign) -> int:
    """Extra bootstraps a design needs when it cannot pack all slots.

    F1's unpacked bootstrapping refreshes a single element per invocation,
    so refreshing a fully packed working set costs ``slots`` bootstraps —
    the reason the paper calls its parameter regime unsuited to SIMD
    bootstrapping and ML workloads.
    """
    if design.bootstrap_slots is None:
        return 1
    return max(1, design.params.slots // design.bootstrap_slots)


def _original_bar(
    design: HardwareDesign, workload_for: "callable"
) -> Fig6Bar:
    """The original-design bar every MAD bar's speedup is measured against.

    The original design runs its own parameters with whatever *caching* its
    on-chip memory naturally supports ("we carefully modeled each one of
    the original designs in SimFHE") but none of the MAD algorithmic
    techniques.
    """
    import dataclasses

    original_workload = workload_for(design.params)
    penalty = _unpacked_penalty(design)
    if penalty > 1:
        original_workload = dataclasses.replace(
            original_workload,
            bootstraps=original_workload.bootstraps * penalty,
        )
    original_cost = workload_cost(
        original_workload,
        design.params,
        MADConfig.caching_only().fitted(design.cache, design.params),
        design.cache,
    ).total
    original_runtime = estimate_runtime(original_cost, design)
    return Fig6Bar(
        label=f"{design.name}-{design.on_chip_mb:g}",
        seconds=original_runtime.seconds,
        bound=original_runtime.bound,
        speedup_vs_original=1.0,
    )


def generate_fig6_series(
    design: HardwareDesign,
    workload_for: "callable",
    cache_sizes_mb: Sequence[float],
) -> List[Fig6Bar]:
    """Original design vs design+MAD at several on-chip memory sizes.

    ``workload_for`` maps a parameter set to an
    :class:`~repro.apps.ApplicationWorkload` (the workload depends on the
    bootstrap cadence, which depends on the parameters).

    This is the reference implementation (and the only entry point
    accepting an arbitrary workload callable; a sweep names its workload
    so the spec has a fingerprint); :func:`generate_fig6_grid` runs the
    same evaluation through :mod:`repro.sweep` with bit-identical bars.
    """
    bars = [_original_bar(design, workload_for)]
    original_runtime_seconds = bars[0].seconds
    for mb in cache_sizes_mb:
        mad = mad_counterpart(design, on_chip_mb=mb)
        cache = CacheModel.from_mb(mb)
        cost = workload_cost(
            workload_for(mad.params), mad.params, MADConfig.all(), cache
        ).total
        runtime = estimate_runtime(cost, mad)
        bars.append(
            Fig6Bar(
                label=mad.name,
                seconds=runtime.seconds,
                bound=runtime.bound,
                speedup_vs_original=original_runtime_seconds / runtime.seconds,
            )
        )
    return bars


def fig6_workload(workload: str, iterations: int) -> "callable":
    """Fig. 6's ``lr`` or ``resnet`` job: parameters -> ApplicationWorkload."""
    from repro.apps import helr_training, resnet20_inference

    if workload == "lr":
        return lambda params: helr_training(params, iterations=iterations)
    if workload == "resnet":
        return resnet20_inference
    raise ValueError(f"unknown fig6 workload {workload!r}")


def fig6_original_bars(
    workload: str,
    designs: Optional[Sequence[HardwareDesign]] = None,
    iterations: int = 30,
) -> tuple:
    """(designs, {design name: original bar}) for a workload.

    Serial pre-computation for the Fig. 6 sweep: one cheap evaluation per
    design, whose runtime the sweep takes as context so every MAD bar's
    speedup is measured against the same original bar.
    """
    from repro.hardware import PRIOR_DESIGNS

    if designs is None:
        designs = list(PRIOR_DESIGNS.values())
    workload_for = fig6_workload(workload, iterations)
    return list(designs), {
        design.name: _original_bar(design, workload_for) for design in designs
    }


def generate_fig6_grid(
    workload: str,
    designs: Optional[Sequence[HardwareDesign]] = None,
    cache_sizes_mb: Sequence[float] = (32.0, 256.0),
    iterations: int = 30,
) -> Dict[str, List[Fig6Bar]]:
    """The Fig. 6 cache-size × design grid through the sweep engine.

    Returns ``{design name: [original bar, mad bar per cache size]}`` in
    design order — per design, exactly the bars
    :func:`generate_fig6_series` produces serially.
    """
    from repro.sweep import SweepAxis, SweepSpec, run_sweep

    designs, originals = fig6_original_bars(workload, designs, iterations)
    spec = SweepSpec(
        name=f"fig6-{workload}",
        evaluator="fig6.bar",
        axes=(
            SweepAxis("design", tuple(designs)),
            SweepAxis("cache_mb", tuple(float(mb) for mb in cache_sizes_mb)),
        ),
        context={
            "workload": workload,
            "iterations": iterations,
            "original_seconds": {
                name: bar.seconds for name, bar in originals.items()
            },
        },
    )
    outcome = run_sweep(spec)
    per_design = len(spec.axes[1].values)
    grid: Dict[str, List[Fig6Bar]] = {}
    for position, design in enumerate(designs):
        grid[design.name] = [
            originals[design.name],
            *outcome.values[position * per_design : (position + 1) * per_design],
        ]
    return grid


def generate_fig6_lr(
    design: HardwareDesign,
    cache_sizes_mb: Sequence[float],
    iterations: int = 30,
) -> List[Fig6Bar]:
    grid = generate_fig6_grid("lr", [design], cache_sizes_mb, iterations=iterations)
    return grid[design.name]


def generate_fig6_resnet(
    design: HardwareDesign,
    cache_sizes_mb: Sequence[float],
) -> List[Fig6Bar]:
    grid = generate_fig6_grid("resnet", [design], cache_sizes_mb)
    return grid[design.name]


# ----------------------------------------------------------------------
def render_series(title: str, points) -> str:
    """Generic text rendering of a figure series."""
    lines = [title, "-" * len(title)]
    for point in points:
        lines.append(f"  {point}")
    return "\n".join(lines)
