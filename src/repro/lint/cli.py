"""CLI behind ``python -m repro lint``.

The flags are declared in :mod:`repro.cli`'s command table like every
other command's; this module only runs them.  Exit codes follow linter
convention: 0 clean, 1 findings, 2 usage errors (unknown rule, missing
path).

``--changed-only`` replays the previous result from ``.lint_cache/``
when no file content changed;
``--format sarif`` emits SARIF 2.1.0 for code-scanning upload, and
``--out`` writes the chosen format to a file in addition to stdout
text output.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path
from typing import Optional

from repro.lint.cache import DEFAULT_CACHE_DIR, LintCache
from repro.lint.core import LintResult, run_lint
from repro.lint.registry import all_rules, get_rules, rule_descriptions
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


def _usage_error(exc: Exception) -> int:
    print(f"error: {exc}", file=sys.stderr)
    return 2


def lint_command(args: argparse.Namespace) -> int:
    """Implementation of the ``lint`` subcommand (see repro.cli)."""
    if args.list_rules:
        print(_render_rule_list())
        return 0
    fmt = args.format or ("json" if args.json else "text")
    try:
        rules = get_rules(args.rule) if args.rule else all_rules()
    except ValueError as exc:
        return _usage_error(exc)
    cache: Optional[LintCache] = None
    if args.changed_only:
        cache = LintCache(Path(DEFAULT_CACHE_DIR))
    paths = args.paths or list(DEFAULT_PATHS)
    try:
        result: LintResult = run_lint(paths, rules, cache=cache)
    except FileNotFoundError as exc:
        return _usage_error(exc)
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
