"""Shared helpers for the whole-program analysis tests."""

import ast
import textwrap

import pytest

from repro.lint.program.symbols import Program


@pytest.fixture
def build_program():
    """Build a :class:`Program` straight from ``{path: source}`` dicts."""

    def _build(files):
        parsed = [
            (path, ast.parse(textwrap.dedent(code)))
            for path, code in files.items()
        ]
        return Program.build(parsed)

    return _build


@pytest.fixture
def program_lint(tmp_path):
    """Write fixture files, run only the program pass, return findings."""
    from repro.lint import all_program_rules, get_program_rules, run_lint

    def _lint(files, rules=None):
        for relpath, code in files.items():
            target = tmp_path / relpath
            target.parent.mkdir(parents=True, exist_ok=True)
            target.write_text(textwrap.dedent(code))
        selected = (
            get_program_rules(rules)
            if rules is not None
            else all_program_rules()
        )
        return run_lint(
            [tmp_path],
            rules=[],
            program_rules=selected,
        )

    return _lint
