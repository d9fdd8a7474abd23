"""Domain-aware static analysis for the MAD reproduction.

The analytical claims this repo reproduces (Fig. 2's DRAM-traffic
reduction, Fig. 3's arithmetic-intensity gains) are only as trustworthy
as a handful of repo-wide invariants: every op and byte flows through
``CostReport``/``CostLedger``, span labels stay stable so cost diffs
align across refactors, and the exact modular-arithmetic paths never
touch floats.  ``repro.lint`` enforces those invariants mechanically —
an AST visitor core (:mod:`repro.lint.core`), a pluggable rule registry
(:mod:`repro.lint.registry`), per-line/per-file suppressions
(:mod:`repro.lint.suppressions`), text/JSON reporters
(:mod:`repro.lint.reporters`) and the domain rules themselves
(:mod:`repro.lint.rules`).  ``--changed-only`` replays the previous
result from ``.lint_cache/`` when nothing changed, and ``--format
sarif`` emits SARIF 2.1.0 for code scanning.

Report determinism — every report is a pure function of its inputs — is
not a lint rule: ``tests/test_determinism.py`` checks it by running
each report producer under several ``PYTHONHASHSEED`` values.

Run it as ``python -m repro lint [--json] [--rule NAME] [paths]`` or
``make lint`` / ``make lint-fast``; CI gates every push on a clean
report.

Typical programmatic use::

    from repro.lint import all_rules, run_lint, render_text

    result = run_lint(["src/repro"], all_rules())
    print(render_text(result))
    assert not result.findings
"""

from repro.lint.cache import LintCache
from repro.lint.core import (
    FileContext,
    Finding,
    LintResult,
    Rule,
    run_lint,
)
from repro.lint.registry import (
    all_rules,
    get_rules,
    register,
    rule_descriptions,
    rule_names,
)
from repro.lint.reporters import (
    LINT_REPORT,
    render_json,
    render_sarif,
    render_text,
    report_dict,
)
from repro.lint.suppressions import SuppressionIndex

__all__ = [
    "LINT_REPORT",
    "FileContext",
    "Finding",
    "LintCache",
    "LintResult",
    "Rule",
    "SuppressionIndex",
    "all_rules",
    "get_rules",
    "register",
    "render_json",
    "render_sarif",
    "render_text",
    "report_dict",
    "rule_descriptions",
    "rule_names",
    "run_lint",
]
