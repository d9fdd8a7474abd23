"""Evaluator registry: sweep evaluators referenced by name.

A :class:`~repro.sweep.spec.SweepSpec` names its evaluator, so the name
is part of the spec's identity and fingerprint, and the engine resolves
it against this registry when the sweep runs.  Built-in evaluators live
in :mod:`repro.sweep.evaluators`, which is imported lazily on first
lookup so domain modules (search, perf, memsim, report) never load
unless a sweep actually runs.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Callable, Dict, Mapping, Optional

from repro.sweep.memo import Memo

__all__ = ["Evaluator", "get_evaluator", "register_evaluator", "registered_evaluators"]

#: fn(point, context, memo) -> result value.
EvaluatorFn = Callable[[Mapping[str, Any], Mapping[str, Any], Memo], Any]
#: row(value, point) -> JSON-able report row for that point.
RowFn = Callable[[Any, Mapping[str, Any]], Dict[str, Any]]


def _default_row(value: Any, point: Mapping[str, Any]) -> Dict[str, Any]:
    """Default report row: the value itself (must already be JSON-able)."""
    if isinstance(value, dict):
        return value
    return {"value": value}


@dataclass(frozen=True)
class Evaluator:
    """One registered point evaluator."""

    name: str
    fn: EvaluatorFn
    row: RowFn


_REGISTRY: Dict[str, Evaluator] = {}


def register_evaluator(
    name: str, fn: EvaluatorFn, row: Optional[RowFn] = None
) -> Evaluator:
    """Register ``fn`` under ``name``; re-registration must be idempotent."""
    evaluator = Evaluator(name=name, fn=fn, row=row or _default_row)
    existing = _REGISTRY.get(name)
    if existing is not None and existing.fn is not fn:
        raise ValueError(f"evaluator {name!r} already registered")
    _REGISTRY[name] = evaluator
    return evaluator


def get_evaluator(name: str) -> Evaluator:
    """Resolve a registered evaluator, loading the built-ins on demand."""
    if name not in _REGISTRY:
        from repro.sweep import evaluators as _builtins  # noqa: F401

        _ = _builtins  # imported for its registration side effects
    try:
        return _REGISTRY[name]
    except KeyError:
        known = ", ".join(sorted(_REGISTRY)) or "<none>"
        raise KeyError(f"unknown evaluator {name!r}; known: {known}") from None


def registered_evaluators() -> Dict[str, Evaluator]:
    """A snapshot of the registry (built-ins loaded)."""
    from repro.sweep import evaluators as _builtins  # noqa: F401

    _ = _builtins
    return dict(_REGISTRY)
