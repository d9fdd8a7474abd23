"""One table of report schemas, one validator, one writer, one loader.

Every versioned JSON document the repo emits or reads back (run, sweep
and memsim reports, cost diffs and their overlay traces) is declared
exactly once as a :class:`Schema`: the family's id plus a draft-07
JSON-Schema dict.  Declaring a family registers it in :data:`SCHEMAS`,
and declaring an id twice raises at import, so each family has one home
and accepts exactly one id.

:func:`validate` interprets the draft-07 subset the specs use (``type``,
``const``, ``enum``, ``required``, ``properties``, ``items``,
``additionalProperties``, ``minimum``, ``maximum``, ``exclusiveMinimum``,
``minItems``, ``pattern`` and local ``$ref``) without third-party
dependencies, and raises :class:`ValueError` naming the offending field
path.  A spec using any other keyword is rejected at declaration, so
CI's ``jsonschema.validate(doc, family.spec)`` cross-check gates the
same contract.  The one rule JSON Schema cannot state here (unique
sweep point indices) runs as its family's ``check`` once the spec has
passed.

:data:`PROVENANCE` is the identity block every report carries, and
:func:`provenance` is its one producer.

:func:`write` and :func:`load` are how documents reach and leave disk:
validated, in the canonical ``indent=1, sort_keys=True`` layout with a
trailing newline.
"""

from __future__ import annotations

import json
import os
import platform
import re
import subprocess
import sys
from pathlib import Path
from typing import Any, Callable, Dict, NoReturn, Optional, Sequence, Set, Union

__all__ = [
    "COUNT",
    "Fail",
    "NON_NEGATIVE",
    "PROVENANCE",
    "SCHEMAS",
    "Schema",
    "fields",
    "load",
    "provenance",
    "validate",
    "write",
]

#: ``fail(path, reason)``: how validators and post-checks report.
Fail = Callable[[str, str], NoReturn]
PathLike = Union[str, "os.PathLike[str]"]

#: Every declared family, keyed by id.
SCHEMAS: Dict[str, "Schema"] = {}

COUNT: Dict[str, Any] = {"type": "integer", "minimum": 0}
NON_NEGATIVE: Dict[str, Any] = {"type": "number", "minimum": 0}

#: The identity block every report carries (:func:`provenance`).
PROVENANCE: Dict[str, Any] = {
    "type": "object",
    "required": ["git_sha", "python", "platform", "argv"],
    "properties": {
        "git_sha": {"type": "string"},
        "git_dirty": {"type": ["boolean", "null"]},
        "python": {"type": "string"},
        "numpy": {"type": ["string", "null"]},
        "platform": {"type": "string"},
        "argv": {"type": "array"},
        "config_fingerprint": {"type": ["string", "null"]},
    },
}

_git_cache: Optional[Dict[str, Any]] = None


def _git_describe() -> Dict[str, Any]:
    """``{git_sha, git_dirty}`` of the working tree, cached per process.

    Falls back to ``{"git_sha": "unknown", "git_dirty": None}`` outside a
    git checkout or when git is unavailable — provenance must never make
    a run fail.
    """
    global _git_cache
    if _git_cache is not None:
        return dict(_git_cache)
    sha = "unknown"
    dirty: Optional[bool] = None
    root = Path(__file__).resolve().parents[3]
    cwd = root if (root / ".git").exists() else Path.cwd()
    try:
        sha = subprocess.run(
            ["git", "rev-parse", "HEAD"],
            cwd=cwd,
            capture_output=True,
            text=True,
            timeout=5,
            check=True,
        ).stdout.strip()
        status = subprocess.run(
            ["git", "status", "--porcelain"],
            cwd=cwd,
            capture_output=True,
            text=True,
            timeout=5,
            check=True,
        ).stdout
        dirty = bool(status.strip())
    except (OSError, subprocess.SubprocessError):
        pass
    _git_cache = {"git_sha": sha, "git_dirty": dirty}
    return dict(_git_cache)


def _numpy_version() -> Optional[str]:
    try:
        import numpy
    except ImportError:  # pragma: no cover - numpy is a hard dep in CI
        return None
    return str(numpy.__version__)


def provenance(
    argv: Optional[Sequence[str]] = None,
    config_fingerprint: Optional[str] = None,
) -> Dict[str, Any]:
    """The :data:`PROVENANCE` block stamped into every emitted report.

    Args:
        argv: command line recorded with the run (defaults to
            ``sys.argv``).
        config_fingerprint: optional stable hash of the run's
            configuration (e.g. a sweep spec fingerprint) so two runs of
            the same commit are still distinguishable by what they ran.
    """
    block = _git_describe()
    block.update(
        {
            "python": platform.python_version(),
            "numpy": _numpy_version(),
            "platform": platform.platform(),
            "argv": list(sys.argv if argv is None else argv),
            "config_fingerprint": config_fingerprint,
        }
    )
    return block


_KEYWORDS = frozenset(
    {
        "type", "const", "enum", "required", "properties", "items",
        "additionalProperties", "minimum", "maximum", "exclusiveMinimum",
        "minItems", "pattern", "$ref", "$schema", "$id", "title",
        "definitions",
    }
)

_TYPES: Dict[str, Callable[[Any], bool]] = {
    "object": lambda value: isinstance(value, dict),
    "array": lambda value: isinstance(value, list),
    "string": lambda value: isinstance(value, str),
    "boolean": lambda value: isinstance(value, bool),
    "null": lambda value: value is None,
    "integer": lambda value: isinstance(value, int)
    and not isinstance(value, bool),
    "number": lambda value: isinstance(value, (int, float))
    and not isinstance(value, bool),
}


def fields(kind: Dict[str, Any], *names: str) -> Dict[str, Any]:
    """An object that requires every one of ``names``, each matching ``kind``."""
    return {
        "type": "object",
        "required": list(names),
        "properties": {name: kind for name in names},
    }


class Schema:
    """One report family: its id, its draft-07 spec, an optional post-check.

    ``key`` is the property path that carries the id (``("schema",)`` for
    most families).  The id is injected there as a required ``const``.
    ``check(doc, fail)`` runs after the spec passes, for rules JSON
    Schema cannot state.
    """

    def __init__(
        self,
        id: str,
        spec: Dict[str, Any],
        *,
        key: Sequence[str] = ("schema",),
        check: Optional[Callable[[Any, Fail], None]] = None,
    ) -> None:
        if id in SCHEMAS:
            raise ValueError(f"schema {id!r} is declared twice")
        unsupported = _unsupported(spec)
        if unsupported:
            raise ValueError(
                f"schema {id!r} uses unsupported keywords {sorted(unsupported)}"
            )
        self.id = id
        self.check = check
        self.spec: Dict[str, Any] = {
            "$schema": "http://json-schema.org/draft-07/schema#",
            "$id": id,
            **spec,
        }
        node = self.spec
        for name in key[:-1]:
            node = node["properties"][name]
        name = key[-1]
        node["required"] = [name, *node.get("required", ())]
        node["properties"] = {name: {"const": id}, **node.get("properties", {})}
        SCHEMAS[id] = self


def validate(doc: Any, family: Schema) -> None:
    """Raise ValueError naming the first field of ``doc`` that breaks ``family``."""

    def fail(path: str, reason: str) -> NoReturn:
        raise ValueError(f"invalid {family.id}: {path or 'document'}: {reason}")

    _check(doc, family.spec, "", family.spec, fail)
    if family.check is not None:
        family.check(doc, fail)


def write(doc: Any, family: Schema, path: PathLike) -> None:
    """Validate ``doc`` and write it in the canonical layout."""
    validate(doc, family)
    with open(path, "w") as handle:
        json.dump(doc, handle, indent=1, sort_keys=True)
        handle.write("\n")


def load(path: PathLike, family: Schema) -> Optional[Any]:
    """Read and validate a document; ``None`` when the file does not exist."""
    try:
        with open(path) as handle:
            doc = json.load(handle)
    except FileNotFoundError:
        return None
    validate(doc, family)
    return doc


# ----------------------------------------------------------------------
# The draft-07 subset interpreter
# ----------------------------------------------------------------------
def _unsupported(spec: Any) -> Set[str]:
    if not isinstance(spec, dict):
        return set()
    found = set(spec) - _KEYWORDS
    for key in ("items", "additionalProperties"):
        found |= _unsupported(spec.get(key))
    for group in ("properties", "definitions"):
        for sub in spec.get(group, {}).values():
            found |= _unsupported(sub)
    return found


def _check(
    value: Any, spec: Dict[str, Any], path: str, root: Dict[str, Any], fail: Fail
) -> None:
    if "$ref" in spec:  # local refs only: "#/definitions/<name>"
        ref = spec["$ref"]
        spec = root
        for part in ref.lstrip("#/").split("/"):
            spec = spec[part]
    kinds = spec.get("type")
    if kinds is not None:
        kinds = [kinds] if isinstance(kinds, str) else kinds
        if not any(_TYPES[kind](value) for kind in kinds):
            fail(path, f"expected {' or '.join(kinds)}, got {type(value).__name__}")
    if "const" in spec and value != spec["const"]:
        fail(path, f"expected {spec['const']!r}, got {value!r}")
    if "enum" in spec and value not in spec["enum"]:
        fail(path, f"{value!r} is not one of {spec['enum']!r}")
    if isinstance(value, dict):
        # Properties before required keys: the injected id comes first,
        # so a document of another family or version is named as such.
        properties = spec.get("properties", {})
        for key, sub in properties.items():
            if key in value:
                _check(value[key], sub, f"{path}.{key}" if path else key, root, fail)
        for key in spec.get("required", ()):
            if key not in value:
                fail(path, f"missing required key {key!r}")
        extra = spec.get("additionalProperties", True)
        if extra is not True:
            for key in value:
                if key in properties:
                    continue
                if extra is False:
                    fail(path, f"unexpected key {key!r}")
                _check(value[key], extra, f"{path}.{key}" if path else key, root, fail)
    elif isinstance(value, list):
        if len(value) < spec.get("minItems", 0):
            fail(path, f"has {len(value)} items, fewer than {spec['minItems']}")
        items = spec.get("items")
        if items is not None:
            for index, item in enumerate(value):
                _check(item, items, f"{path}[{index}]", root, fail)
    elif isinstance(value, str):
        pattern = spec.get("pattern")
        if pattern is not None and not re.search(pattern, value):
            fail(path, f"{value!r} does not match {pattern!r}")
    elif _TYPES["number"](value):
        if "minimum" in spec and value < spec["minimum"]:
            fail(path, f"{value!r} is below the minimum {spec['minimum']!r}")
        if "maximum" in spec and value > spec["maximum"]:
            fail(path, f"{value!r} exceeds the maximum {spec['maximum']!r}")
        if "exclusiveMinimum" in spec and value <= spec["exclusiveMinimum"]:
            fail(path, f"{value!r} is not above {spec['exclusiveMinimum']!r}")
