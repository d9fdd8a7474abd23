"""Findings must not depend on the order files are visited.

``run_lint`` visits files in the order it is given them, and
``ConfigFlagCoverage`` collects flag definitions and reads across files
before it reports.  Any permutation of the same file list must still
produce identical findings.  Hypothesis drives the permutations.
"""

import textwrap

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.lint import all_rules, run_lint

FILES = {
    "perf/optimizations.py": """
        from dataclasses import dataclass

        @dataclass(frozen=True)
        class MADConfig:
            cache_o1: bool = False
            merge_moddown: bool = False
            phantom_flag: bool = False

            def __post_init__(self):
                assert isinstance(self.phantom_flag, bool)
        """,
    "perf/keyswitch.py": """
        def cost(config, report):
            if config.cache_o1:
                return report
            return report
        """,
    "sweep/grid.py": """
        def ablations(config):
            return [config.merge_moddown]
        """,
    "perf/primitives.py": """
        def leak(reports):
            dram_bytes = 0
            for report in reports:
                dram_bytes += report.traffic.total
            return dram_bytes
        """,
    "numth/approx.py": """
        def scale(n):
            return 1 / n
        """,
}


@pytest.fixture(scope="module")
def tree(tmp_path_factory):
    root = tmp_path_factory.mktemp("tree")
    paths = []
    for relpath, code in FILES.items():
        target = root / relpath
        target.parent.mkdir(parents=True, exist_ok=True)
        target.write_text(textwrap.dedent(code))
        paths.append(target)
    return paths


def _findings(paths):
    result = run_lint(paths, all_rules())
    return [(f.path, f.line, f.col, f.rule, f.message) for f in result.findings]


@settings(max_examples=25, deadline=None)
@given(order=st.permutations(range(len(FILES))))
def test_findings_are_independent_of_file_visit_order(tree, order):
    assert _findings([tree[i] for i in order]) == _findings(tree)


def test_baseline_fixture_actually_finds_violations(tree):
    # Guard against the permutation test passing vacuously: one cross-file
    # finding (the flag read only by its own __post_init__) and one per-file
    # finding from each of two rules.
    by_rule = {}
    for path, _, _, rule, message in _findings(tree):
        by_rule.setdefault(rule, []).append((path.rsplit("/", 2)[-2:], message))
    assert sorted(by_rule) == [
        "ConfigFlagCoverage",
        "ExactArithPurity",
        "LedgerDiscipline",
    ]
    [(where, message)] = by_rule["ConfigFlagCoverage"]
    assert where == ["perf", "optimizations.py"] and "phantom_flag" in message
