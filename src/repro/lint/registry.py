"""Rule registry: name → rule class, populated by ``@register``.

Rule modules under :mod:`repro.lint.rules` register themselves at import
time; every lookup helper first ensures that package is imported, so
callers never see a half-populated registry.
"""

from __future__ import annotations

from typing import Dict, List, Sequence, Type

from repro.lint.core import Rule

__all__ = [
    "all_rules",
    "get_rules",
    "register",
    "rule_descriptions",
    "rule_names",
]

_RULES: Dict[str, Type[Rule]] = {}


def register(cls: Type[Rule]) -> Type[Rule]:
    """Class decorator adding a :class:`Rule` subclass to the registry."""
    name = cls.name
    if not name or name == "Rule":
        raise ValueError(f"rule class {cls.__name__} must set a unique `name`")
    if name in _RULES:
        raise ValueError(f"duplicate rule name {name!r}")
    _RULES[name] = cls
    return cls


def _ensure_loaded() -> None:
    import repro.lint.rules  # noqa: F401  (imports register the rules)


def rule_names() -> List[str]:
    """Sorted names of every registered rule."""
    _ensure_loaded()
    return sorted(_RULES)


def rule_descriptions() -> Dict[str, str]:
    """Mapping of rule name → one-line description (for ``--list-rules``)."""
    _ensure_loaded()
    return {name: _RULES[name].description for name in sorted(_RULES)}


def all_rules() -> List[Rule]:
    """One fresh instance of every registered rule, sorted by name."""
    _ensure_loaded()
    return [_RULES[name]() for name in sorted(_RULES)]


def get_rules(names: Sequence[str]) -> List[Rule]:
    """Instances for the named rules; raises ValueError on unknown names."""
    _ensure_loaded()
    unknown = sorted(set(names) - set(_RULES))
    if unknown:
        raise ValueError(
            f"unknown rule(s) {', '.join(unknown)}; "
            f"known rules: {', '.join(rule_names())}"
        )
    return [_RULES[name]() for name in names]
