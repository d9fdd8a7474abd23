"""Named sweeps for ``python -m repro sweep <name>``.

Each preset builds a :class:`~repro.sweep.spec.SweepSpec` for one of the
paper's sweep surfaces; ``--quick`` shrinks the grid for smoke runs.
Preset builders may do cheap serial pre-computation (e.g. the Fig. 6
original-design bars each MAD bar's speedup is measured against) but
never evaluate grid points themselves.
"""

from __future__ import annotations

from typing import Any, Callable, Dict, Tuple

from repro.sweep.spec import SweepAxis, SweepSpec

__all__ = ["SWEEP_PRESETS", "build_preset", "preset_names"]

#: Fig. 6 cache sizes (decimal MB) for the design-grid preset.
FIG6_CACHE_SIZES: Tuple[float, ...] = (32.0, 64.0, 128.0, 256.0)

#: Ablation cache ladder (decimal MB), matching the committed benchmark.
ABLATION_CACHE_SIZES: Tuple[float, ...] = (0.5, 1, 2, 6, 16, 32, 64, 256)


def _table5(quick: bool) -> SweepSpec:
    from repro.hardware import PRIOR_DESIGNS, mad_counterpart
    from repro.perf import MADConfig
    from repro.search import enumerate_parameter_space

    if quick:
        candidates = tuple(
            enumerate_parameter_space(
                log_q_choices=(46, 50, 54, 58),
                max_limbs_choices=(30, 35, 40),
                dnum_choices=(1, 2, 3),
                fft_iter_choices=(3, 4, 6),
            )
        )
    else:
        candidates = tuple(enumerate_parameter_space())
    return SweepSpec(
        name="table5",
        evaluator="search.candidate",
        axes=(SweepAxis("params", candidates),),
        context={
            "design": mad_counterpart(PRIOR_DESIGNS["GPU [Jung et al.]"]),
            "config": MADConfig.all(),
            "enforce_cache": False,
        },
    )


def _ablation_cache(quick: bool) -> SweepSpec:
    from repro.params import BASELINE_JUNG
    from repro.perf import MADConfig

    sizes = ABLATION_CACHE_SIZES[::2] if quick else ABLATION_CACHE_SIZES
    return SweepSpec(
        name="ablation-cache",
        evaluator="bootstrap.cost",
        axes=(SweepAxis("cache_mb", tuple(float(s) for s in sizes)),),
        context={"params": BASELINE_JUNG, "config": MADConfig.caching_only()},
    )


def _fig6(workload: str, quick: bool) -> SweepSpec:
    from repro.report.figures import fig6_original_bars

    designs, originals = fig6_original_bars(workload)
    if quick:
        designs = designs[:1]
    sizes = FIG6_CACHE_SIZES[:2] if quick else FIG6_CACHE_SIZES
    return SweepSpec(
        name=f"fig6-{workload}",
        evaluator="fig6.bar",
        axes=(
            SweepAxis("design", tuple(designs)),
            SweepAxis("cache_mb", tuple(sizes)),
        ),
        context={
            "workload": workload,
            "iterations": 30,
            "original_seconds": {
                name: bar.seconds for name, bar in originals.items()
            },
        },
    )


def _memsim_ladder(quick: bool) -> SweepSpec:
    from repro.memsim.validate import ladder_sweep_spec

    primitives = ("mult", "rotate", "key_switch") if quick else None
    return ladder_sweep_spec(primitives=primitives)


SWEEP_PRESETS: Dict[str, Callable[[bool], SweepSpec]] = {
    "table5": _table5,
    "ablation-cache": _ablation_cache,
    "fig6-lr": lambda quick: _fig6("lr", quick),
    "fig6-resnet": lambda quick: _fig6("resnet", quick),
    "memsim-ladder": _memsim_ladder,
}


def preset_names() -> Tuple[str, ...]:
    return tuple(sorted(SWEEP_PRESETS))


def build_preset(name: str, quick: bool = False) -> SweepSpec:
    try:
        builder = SWEEP_PRESETS[name]
    except KeyError:
        known = ", ".join(preset_names())
        raise KeyError(f"unknown sweep {name!r}; known: {known}") from None
    spec: Any = builder(quick)
    return spec
