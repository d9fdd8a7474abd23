"""Declarative sweep specifications.

A :class:`SweepSpec` names the *axes* of a design-space sweep (CKKS
parameter sets, cache sizes, :class:`~repro.perf.optimizations.MADConfig`
rungs, hardware designs — any value :func:`value_key` can encode), the
registered evaluator that scores one grid point, and a fixed *context*
shared by every point.

The determinism contract lives here:

* **Canonical order.**  Points are the cartesian product of the axes in
  declaration order, last axis fastest — exactly the nesting a serial
  ``for`` loop over the same axes would produce.  Every point carries its
  canonical index, and the engine evaluates and reports in this order.
* **Stable identity.**  :func:`value_key` maps an axis value to a
  JSON-able canonical form (dataclasses become ``[type, {field: key}]``),
  and :meth:`SweepSpec.fingerprint` hashes the whole spec identity —
  name, evaluator, axes, context — into the report.
"""

from __future__ import annotations

import functools
import hashlib
import itertools
import json
import math
from dataclasses import dataclass, field, fields, is_dataclass
from typing import Any, Dict, Iterator, Mapping, Tuple

__all__ = ["SweepAxis", "SweepSpec", "value_key"]


def value_key(value: Any) -> Any:
    """Canonical JSON-able identity of an axis or context value.

    Primitives pass through; dataclass instances (CkksParams, MADConfig,
    HardwareDesign, ...) become ``[ClassName, {field: value_key(...)}]``;
    sequences and mappings recurse.  Two values compare equal under this
    key iff the sweep treats them as the same grid coordinate.
    """
    if value is None or isinstance(value, (bool, int, float, str)):
        return value
    if is_dataclass(value) and not isinstance(value, type):
        cls = type(value)
        return [
            cls.__name__,
            {name: value_key(getattr(value, name)) for name in _field_names(cls)},
        ]
    if isinstance(value, (tuple, list)):
        return [value_key(item) for item in value]
    if isinstance(value, Mapping):
        return {str(key): value_key(item) for key, item in sorted(value.items(), key=lambda kv: str(kv[0]))}
    raise TypeError(
        f"axis/context value of type {type(value).__name__} has no "
        f"canonical key; use primitives, dataclasses, tuples or mappings"
    )


@functools.lru_cache(maxsize=None)
def _field_names(cls: type) -> Tuple[str, ...]:
    """A dataclass type's field names, looked up once per type.

    The table holds one tuple per axis/context dataclass type, a handful.
    """
    return tuple(f.name for f in fields(cls))


@dataclass(frozen=True)
class SweepAxis:
    """One named dimension of the grid, values in canonical order."""

    name: str
    values: Tuple[Any, ...]

    def __post_init__(self) -> None:
        if not self.name:
            raise ValueError("axis name must be non-empty")
        if not isinstance(self.values, tuple):
            # Accept any sequence but store the canonical immutable form.
            object.__setattr__(self, "values", tuple(self.values))
        if not self.values:
            raise ValueError(f"axis {self.name!r} has no values")


@dataclass(frozen=True)
class SweepSpec:
    """A declarative sweep: axes × evaluator (+ fixed context).

    Args:
        name: display/report name of the sweep.
        evaluator: name of an evaluator in
            :data:`repro.sweep.evaluators.EVALUATORS`.
        axes: grid dimensions, outermost first.
        context: fixed kwargs every evaluation receives.
    """

    name: str
    evaluator: str
    axes: Tuple[SweepAxis, ...]
    context: Mapping[str, Any] = field(default_factory=dict)

    def __post_init__(self) -> None:
        if not isinstance(self.axes, tuple):
            object.__setattr__(self, "axes", tuple(self.axes))
        if not self.axes:
            raise ValueError("a sweep needs at least one axis")
        names = [axis.name for axis in self.axes]
        if len(set(names)) != len(names):
            raise ValueError(f"duplicate axis names: {names}")

    # ------------------------------------------------------------------
    @property
    def size(self) -> int:
        """Number of grid points."""
        return math.prod(len(axis.values) for axis in self.axes)

    def points(self) -> Iterator[Tuple[int, Dict[str, Any]]]:
        """Yield ``(canonical_index, {axis: value})`` in canonical order."""
        names = [axis.name for axis in self.axes]
        for index, combo in enumerate(
            itertools.product(*(axis.values for axis in self.axes))
        ):
            yield index, dict(zip(names, combo))

    def point_key(self, point: Mapping[str, Any]) -> Dict[str, Any]:
        """The JSON-able identity of one point, axis by axis."""
        return {axis.name: value_key(point[axis.name]) for axis in self.axes}

    # ------------------------------------------------------------------
    def identity(self) -> Dict[str, Any]:
        """The JSON-able spec identity the fingerprint is computed over."""
        return {
            "name": self.name,
            "evaluator": self.evaluator,
            "axes": [
                {"name": axis.name, "values": [value_key(v) for v in axis.values]}
                for axis in self.axes
            ],
            "context": value_key(dict(self.context)),
        }

    def fingerprint(self) -> str:
        """SHA-256 over the canonical spec identity (recorded in the report)."""
        blob = json.dumps(self.identity(), sort_keys=True, separators=(",", ":"))
        return hashlib.sha256(blob.encode("utf-8")).hexdigest()
