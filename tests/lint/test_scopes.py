"""The lint project map names real places, and every entry is in use.

A scope constant that names a file or directory the tree no longer has
turns its rule off there without a sound: the rule matches nothing and
the self-check stays clean.  A constant no rule reads is dead weight of
the same kind.
"""

import ast
from pathlib import Path

import pytest

import repro
from repro.lint import scopes

SRC = Path(repro.__file__).resolve().parent
RULES = SRC / "lint" / "rules"


def _entries(name):
    value = getattr(scopes, name)
    return (value,) if isinstance(value, str) else value


ENTRIES = [(name, entry) for name in scopes.__all__ for entry in _entries(name)]


@pytest.mark.parametrize(
    "name, entry", ENTRIES, ids=[f"{n}-{e}" for n, e in ENTRIES]
)
def test_entry_names_a_path_in_the_tree(name, entry):
    # ``.py`` tails are matched as files, everything else as a directory.
    path = SRC / entry
    if entry.endswith(".py"):
        assert path.is_file(), f"{name}: no file {entry} under src/repro"
    else:
        assert path.is_dir(), f"{name}: no directory {entry} under src/repro"


def _imported_from_scopes():
    names = set()
    for module in sorted(RULES.glob("*.py")):
        for node in ast.walk(ast.parse(module.read_text())):
            if isinstance(node, ast.ImportFrom) and node.module == "repro.lint.scopes":
                names.update(alias.name for alias in node.names)
    return names


@pytest.mark.parametrize("name", scopes.__all__)
def test_constant_is_read_by_a_rule(name):
    assert name in _imported_from_scopes()


def test_all_lists_every_constant():
    constants = {name for name in vars(scopes) if name.isupper()}
    assert sorted(constants) == sorted(scopes.__all__)
