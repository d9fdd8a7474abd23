"""Memoization of cost-model evaluations within one sweep run.

The sweep grids repeat expensive sub-evaluations across points — the
5,513 Table 5 search candidates have only 577 distinct bootstrap costs,
and every memsim rung rebuilds the same schedule generator.  A
:class:`Memo` is a plain dict with hit/miss counters; the engine keeps
one for the whole run.  Because every evaluation is a pure function of
its key, memoization can never change sweep output — only how often
the model is re-evaluated.  A key may leave out an input only if the
evaluation ignores it: bootstrap costs key on
``(cost_shape(params), MADConfig, cache_bytes)``, and
``tests/perf/test_model_properties.py`` checks that the cost model is
invariant under every ``CkksParams`` field outside
:data:`repro.perf.COST_SHAPE_FIELDS`.

The 577 shapes repeat their levels too: a level's ``mult``, ``pt_mult``,
``add`` and PtMatVecMult units read the parameters only through N, the
limb size and alpha.  So a memo also carries the run's level-cost table,
:attr:`Memo.level_costs`, which bootstrap-cost misses hand to
:class:`repro.perf.BootstrapModel`, the one place that reads it
(DESIGN §8).  The full Table 5 grid fills it with 3,036 entries: 703
levels each of ``mult``, ``pt_mult`` and ``add``, and 927 sets of
PtMatVecMult units, which every DFT stage at that level shares whatever
its diagonal count.  It sits outside the hit/miss counts and goes with
the memo, so no search reuses another's.

Memoization is also **observationally transparent**: the compute
callback runs under :func:`repro.obs.state.suppressed`, so a memoized
evaluation emits the same telemetry on hit and miss — none.  Without
this, a model's internal spans would appear only under the point that
happened to meet a key first, and a trace would change whenever the
grid's order or the memo's key did, although no value changed.
"""

from __future__ import annotations

from typing import Any, Callable, Dict, Hashable, Tuple

from repro.obs import state as obs

__all__ = ["Memo"]


class Memo:
    """Keyed cache of pure evaluations with hit/miss accounting."""

    def __init__(self) -> None:
        self._store: Dict[Hashable, Any] = {}
        self.hits = 0
        self.misses = 0
        #: The run's level-cost table (:data:`repro.perf.bootstrap
        #: .LevelCosts`), filled by bootstrap-cost misses; not counted in
        #: :attr:`hits` or :attr:`misses`.
        self.level_costs: Dict[Hashable, Any] = {}

    def __len__(self) -> int:
        return len(self._store)

    def get_or_compute(self, key: Hashable, compute: Callable[[], Any]) -> Any:
        try:
            value = self._store[key]
        except KeyError:
            self.misses += 1
            with obs.suppressed():
                value = self._store[key] = compute()
            return value
        self.hits += 1
        return value

    def stats(self) -> Tuple[int, int]:
        """``(hits, misses)`` so far."""
        return self.hits, self.misses
