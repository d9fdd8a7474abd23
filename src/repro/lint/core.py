"""AST visitor engine: files in, :class:`Finding` objects out.

One :func:`ast.walk` per file dispatches nodes to every rule that
registered interest in that node type (``Rule.node_types``), so adding a
rule never adds a file-parse or tree-walk.  Rules are plain objects with
per-file hooks (``start_file``/``visit``/``finish_file``) and one
run-wide hook (``finish_run``) for cross-file invariants such as
:class:`~repro.lint.rules.config.ConfigFlagCoverage`.

Suppression comments (see :mod:`repro.lint.suppressions`) are applied
uniformly by the engine after every rule has reported, so rules never
need to know about them.  An optional
:class:`~repro.lint.cache.LintCache` short-circuits the entire run when
no file content changed (the cache key hashes every file's content
plus the rule selection).
"""

from __future__ import annotations

import ast
from dataclasses import dataclass, field
from pathlib import Path, PurePosixPath
from typing import (
    TYPE_CHECKING,
    Dict,
    Iterable,
    List,
    Optional,
    Sequence,
    Tuple,
    Type,
    Union,
)

from repro.lint.suppressions import SuppressionIndex

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.lint.cache import LintCache

__all__ = [
    "FileContext",
    "Finding",
    "LintResult",
    "Rule",
    "run_lint",
]

#: Pseudo-rule name attached to findings for unparseable files.
PARSE_ERROR_RULE = "SyntaxError"


@dataclass(frozen=True)
class Finding:
    """One rule violation at a specific source location."""

    rule: str
    path: str
    line: int
    col: int
    message: str

    def sort_key(self) -> Tuple[str, int, int, str]:
        return (self.path, self.line, self.col, self.rule)

    def to_dict(self) -> Dict[str, object]:
        return {
            "rule": self.rule,
            "path": self.path,
            "line": self.line,
            "col": self.col,
            "message": self.message,
        }

    def render(self) -> str:
        return f"{self.path}:{self.line}:{self.col}: {self.rule}: {self.message}"


class FileContext:
    """Per-file state handed to every rule hook."""

    def __init__(self, path: Path, display_path: str, tree: ast.AST, source: str):
        self.path = path
        self.display_path = display_path
        self.tree = tree
        self.source = source
        self.lines: List[str] = source.splitlines()
        self.parts: Tuple[str, ...] = PurePosixPath(
            display_path.replace("\\", "/")
        ).parts
        self.suppressions = SuppressionIndex.from_source(source)

    def in_dir(self, *names: str) -> bool:
        """Is any of ``names`` a directory component of this file's path?"""
        return any(name in self.parts for name in names)

    def is_file(self, *tails: str) -> bool:
        """Does the path end with any of the given POSIX tails?"""
        posix = "/".join(self.parts)
        return any(posix.endswith(tail) for tail in tails)


class Rule:
    """Base class for lint rules; register subclasses with ``@register``.

    Subclasses set ``name`` (the identifier used in reports and
    suppression comments), ``description`` (shown by ``--list-rules``)
    and ``node_types`` (the AST node classes ``visit`` wants to see).
    A fresh instance is created per run, so rules may keep state on
    ``self`` and report it from ``finish_file``/``finish_run``.
    """

    name: str = ""
    description: str = ""
    node_types: Tuple[Type[ast.AST], ...] = ()

    def finding(self, ctx: FileContext, node: ast.AST, message: str) -> Finding:
        return Finding(
            rule=self.name,
            path=ctx.display_path,
            line=getattr(node, "lineno", 1),
            col=getattr(node, "col_offset", 0) + 1,
            message=message,
        )

    def start_file(self, ctx: FileContext) -> None:
        """Called before any node of a new file is visited."""

    def visit(self, node: ast.AST, ctx: FileContext) -> Optional[Iterable[Finding]]:
        """Inspect one node; return findings (or None) for it."""
        return None

    def finish_file(self, ctx: FileContext) -> Iterable[Finding]:
        """Called after the last node of a file; may report findings."""
        return ()

    def finish_run(self) -> Iterable[Finding]:
        """Called once after every file; for cross-file invariants."""
        return ()


@dataclass
class LintResult:
    """Outcome of one lint run (post-suppression)."""

    findings: List[Finding] = field(default_factory=list)
    files: List[str] = field(default_factory=list)
    rules: List[str] = field(default_factory=list)
    suppressed: int = 0
    #: True when the whole result was replayed from the on-disk cache.
    from_cache: bool = False

    @property
    def clean(self) -> bool:
        return not self.findings

    def counts_by_rule(self) -> Dict[str, int]:
        counts: Dict[str, int] = {}
        for item in self.findings:
            counts[item.rule] = counts.get(item.rule, 0) + 1
        return counts


def _iter_python_files(paths: Sequence[Union[str, Path]]) -> List[Path]:
    files: List[Path] = []
    seen = set()
    for raw in paths:
        path = Path(raw)
        if path.is_dir():
            candidates: Iterable[Path] = sorted(path.rglob("*.py"))
        elif path.is_file():
            candidates = [path]
        else:
            raise FileNotFoundError(f"no such file or directory: {raw}")
        for candidate in candidates:
            key = candidate.resolve()
            if key not in seen:
                seen.add(key)
                files.append(candidate)
    return files


def _display_path(path: Path) -> str:
    try:
        return path.resolve().relative_to(Path.cwd().resolve()).as_posix()
    except ValueError:
        return path.as_posix()


def run_lint(
    paths: Sequence[Union[str, Path]],
    rules: Optional[Sequence[Rule]] = None,
    cache: Optional["LintCache"] = None,
) -> LintResult:
    """Lint every ``*.py`` file under ``paths``.

    ``rules`` defaults to one fresh instance of every registered rule.
    ``cache`` replays the previous result when no file content (and no
    rule selection) changed.  Raises :class:`FileNotFoundError` for
    paths that do not exist.
    """
    if rules is None:
        from repro.lint.registry import all_rules

        rules = all_rules()
    rule_list = list(rules)

    sources: List[Tuple[Path, str, str]] = []
    for path in _iter_python_files(paths):
        sources.append(
            (path, _display_path(path), path.read_text(encoding="utf-8"))
        )

    cache_key: Optional[str] = None
    if cache is not None:
        cache_key = cache.run_key(
            rule_names=[rule.name for rule in rule_list],
            files=[(display, source) for _, display, source in sources],
        )
        cached = cache.load(cache_key)
        if cached is not None:
            return cached

    by_type: Dict[Type[ast.AST], List[Rule]] = {}
    for rule in rule_list:
        for node_type in rule.node_types:
            by_type.setdefault(node_type, []).append(rule)

    findings: List[Finding] = []
    suppressions: Dict[str, SuppressionIndex] = {}
    linted: List[str] = []

    for path, display, source in sources:
        linted.append(display)
        try:
            tree = ast.parse(source, filename=str(path))
        except SyntaxError as exc:
            findings.append(
                Finding(
                    rule=PARSE_ERROR_RULE,
                    path=display,
                    line=exc.lineno or 1,
                    col=exc.offset or 1,
                    message=f"file does not parse: {exc.msg}",
                )
            )
            continue
        ctx = FileContext(path, display, tree, source)
        suppressions[display] = ctx.suppressions
        for rule in rule_list:
            rule.start_file(ctx)
        for node in ast.walk(tree):
            for rule in by_type.get(type(node), ()):
                found = rule.visit(node, ctx)
                if found:
                    findings.extend(found)
        for rule in rule_list:
            findings.extend(rule.finish_file(ctx))

    for rule in rule_list:
        findings.extend(rule.finish_run())

    kept: List[Finding] = []
    suppressed = 0
    for item in findings:
        index = suppressions.get(item.path)
        if index is not None and index.is_suppressed(item.rule, item.line):
            suppressed += 1
        else:
            kept.append(item)
    kept.sort(key=Finding.sort_key)
    result = LintResult(
        findings=kept,
        files=linted,
        rules=[rule.name for rule in rule_list],
        suppressed=suppressed,
    )
    if cache is not None and cache_key is not None:
        cache.store(cache_key, result)
    return result
