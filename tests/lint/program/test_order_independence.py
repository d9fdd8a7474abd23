"""Findings must not depend on the order files are visited.

``Program.build`` sorts its input and witness chains merge to the
deterministic minimum, so any permutation of the same file set must
produce byte-identical findings.  Hypothesis drives the permutations.
"""

import ast
import textwrap

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.lint.program.symbols import Program
from repro.lint.program.taint import NondeterminismFlow

FILES = [
    (
        "pkg/report.py",
        """
        from walk import names
        from stamp import now

        def build(d):
            return {
                "schema": "repro.x/v1",
                "rows": [[k, v] for k, v in d.items()],
                "names": names("."),
                "t": now(),
            }
        """,
    ),
    (
        "pkg/walk.py",
        """
        import os

        def names(root):
            return os.listdir(root)
        """,
    ),
    (
        "pkg/stamp.py",
        """
        import time

        def now():
            return time.perf_counter()
        """,
    ),
    (
        "pkg/emit.py",
        """
        from walk import names

        def emit():
            return {"schema": "x", "files": names(".")}
        """,
    ),
]


def _findings(ordered):
    parsed = [
        (path, ast.parse(textwrap.dedent(code))) for path, code in ordered
    ]
    program = Program.build(parsed)
    found = list(NondeterminismFlow().check(program))
    return sorted(
        (f.path, f.line, f.col, f.rule, f.message) for f in found
    )


BASELINE = _findings(FILES)


@settings(max_examples=25, deadline=None)
@given(order=st.permutations(FILES))
def test_findings_are_independent_of_file_visit_order(order):
    assert _findings(order) == BASELINE


def test_baseline_fixture_actually_finds_violations():
    # Guard against the permutation test passing vacuously.
    assert {entry[3] for entry in BASELINE} == {"NondeterminismFlow"}
    assert {entry[0] for entry in BASELINE} == {"pkg/report.py", "pkg/emit.py"}
