"""CLI behind ``python -m repro lint``.

The flags are declared in :mod:`repro.cli`'s command table like every
other command's; this module only runs them.  Exit codes follow linter
convention: 0 clean, 1 findings, 2 usage errors (unknown rule, missing
path).

``--program`` adds the whole-program pass (nondeterminism taint);
``--changed-only`` replays the previous result from ``.lint_cache/``
when no file content changed;
``--format sarif`` emits SARIF 2.1.0 for code-scanning upload, and
``--out`` writes the chosen format to a file in addition to stdout
text output.
"""

from __future__ import annotations

import argparse
from pathlib import Path
from typing import List, Optional

from repro.lint.cache import DEFAULT_CACHE_DIR, LintCache
from repro.lint.core import LintResult, ProgramRule, run_lint
from repro.lint.registry import (
    all_program_rules,
    all_rules,
    get_program_rules,
    get_rules,
    rule_descriptions,
)
from repro.lint.reporters import render_json, render_sarif, render_text

__all__ = ["DEFAULT_PATHS", "lint_command"]

#: What ``python -m repro lint`` checks when no paths are given.
DEFAULT_PATHS = ("src/repro",)


def _render_rule_list() -> str:
    descriptions = rule_descriptions()
    width = max(len(name) for name in descriptions)
    return "\n".join(
        f"{name:{width}}  {description}"
        for name, description in descriptions.items()
    )


def _render(result: LintResult, fmt: str) -> str:
    if fmt == "json":
        return render_json(result)
    if fmt == "sarif":
        return render_sarif(result)
    return render_text(result)


def lint_command(args: argparse.Namespace) -> int:
    """Implementation of the ``lint`` subcommand (see repro.cli)."""
    if args.list_rules:
        print(_render_rule_list())
        return 0
    fmt = args.format or ("json" if args.json else "text")
    try:
        if args.rule:
            rules = get_rules(args.rule)
            program_rules: List[ProgramRule] = get_program_rules(args.rule)
            if program_rules and not args.program:
                raise ValueError(
                    "rule(s) "
                    + ", ".join(rule.name for rule in program_rules)
                    + " need the whole-program pass; pass --program"
                )
        else:
            rules = all_rules()
            program_rules = all_program_rules() if args.program else []
    except ValueError as exc:
        raise SystemExit(f"error: {exc}")
    if not args.program:
        program_rules = []
    cache: Optional[LintCache] = None
    if args.changed_only:
        cache = LintCache(Path(DEFAULT_CACHE_DIR))
    paths = args.paths or list(DEFAULT_PATHS)
    try:
        result: LintResult = run_lint(
            paths, rules, program_rules=program_rules, cache=cache
        )
    except FileNotFoundError as exc:
        raise SystemExit(f"error: {exc}")
    rendered = _render(result, fmt)
    if args.out:
        Path(args.out).write_text(rendered + "\n", encoding="utf-8")
        summary = render_text(result)
        if result.from_cache:
            summary += " [cached]"
        print(summary)
    else:
        if fmt == "text" and result.from_cache:
            rendered += " [cached]"
        print(rendered)
    return 0 if result.clean else 1
