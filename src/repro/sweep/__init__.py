"""repro.sweep — deterministic design-space sweeps.

The paper's headline workflow is brute-force exploration ("the search
takes only a few minutes", §4.1): Table 5's parameter search, the
ablation grids, the Fig. 6 cache-size × design matrix and the memsim
Fig. 2 ladder are all sweeps over a declared grid.  This package gives
them one engine:

* :class:`SweepSpec` / :class:`SweepAxis` — declarative axes + a named
  evaluator (:mod:`repro.sweep.spec`).
* :func:`run_sweep` — one in-process pass over the points in canonical
  order with one memo for the run (:mod:`repro.sweep.engine`,
  :mod:`repro.sweep.memo`).
* ``sweep_report.json`` reports, declared on the
  :mod:`repro.obs.schema` table (:mod:`repro.sweep.report`).
* The evaluators of the four sweep surfaces, in one mapping
  (:mod:`repro.sweep.evaluators`), and named presets for the CLI
  (:mod:`repro.sweep.presets`).
"""

from repro.sweep.engine import SweepOutcome, run_sweep
from repro.sweep.evaluators import Evaluator, get_evaluator
from repro.sweep.memo import Memo
from repro.sweep.presets import SWEEP_PRESETS, build_preset, preset_names
from repro.sweep.report import SWEEP_REPORT, build_sweep_report
from repro.sweep.spec import SweepAxis, SweepSpec, value_key

__all__ = [
    "Evaluator",
    "Memo",
    "SWEEP_PRESETS",
    "SWEEP_REPORT",
    "build_preset",
    "preset_names",
    "SweepAxis",
    "SweepOutcome",
    "SweepSpec",
    "build_sweep_report",
    "get_evaluator",
    "run_sweep",
    "value_key",
]
