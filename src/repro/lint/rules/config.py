"""ConfigFlagCoverage: every ``MADConfig`` flag drives the model.

Each boolean on :class:`repro.perf.optimizations.MADConfig` claims to
reproduce one MAD technique (O(1)/O(beta)/O(alpha) caching, limb
re-ordering, ModDown merge/hoist, key compression).  A flag that no
cost formula in ``perf/`` ever reads is a reproduction bug: the ladder
figures would show an "optimization" that changes nothing.

This is the one cross-file rule: it collects ``MADConfig``'s dataclass
fields wherever the class is defined, collects every attribute name
read in ``perf/`` and ``sweep/`` files *other than* the defining
module (whose ``__post_init__`` validation reads don't count as model
coverage; sweep evaluators dispatch on the same flags when building
ablation grids, so their reads count too), and at the end of the run
reports each flag with no read, anchored at the flag's definition line.
"""

from __future__ import annotations

import ast
from typing import Dict, Iterable, List, Optional, Set, Tuple

from repro.lint.core import FileContext, Finding, Rule
from repro.lint.registry import register

__all__ = ["ConfigFlagCoverage"]


@register
class ConfigFlagCoverage(Rule):
    name = "ConfigFlagCoverage"
    description = (
        "every MADConfig flag must be read somewhere in perf/ or sweep/ "
        "outside its defining module — dead optimization flags are "
        "reproduction bugs"
    )
    node_types = (ast.ClassDef, ast.Attribute)

    def __init__(self) -> None:
        #: flag name -> (path, line, col) of its definition.
        self._flags: Dict[str, Tuple[str, int, int]] = {}
        self._defining_path: Optional[str] = None
        #: perf-/sweep-file path -> attribute names read there.
        self._reads: Dict[str, Set[str]] = {}

    def visit(
        self, node: ast.AST, ctx: FileContext
    ) -> Optional[Iterable[Finding]]:
        if isinstance(node, ast.ClassDef):
            if node.name != "MADConfig":
                return None
            self._defining_path = ctx.display_path
            for stmt in node.body:
                if isinstance(stmt, ast.AnnAssign) and isinstance(
                    stmt.target, ast.Name
                ):
                    self._flags[stmt.target.id] = (
                        ctx.display_path,
                        stmt.lineno,
                        stmt.col_offset + 1,
                    )
            return None
        assert isinstance(node, ast.Attribute)
        if isinstance(node.ctx, ast.Load) and (
            ctx.in_dir("perf") or ctx.in_dir("sweep")
        ):
            self._reads.setdefault(ctx.display_path, set()).add(node.attr)
        return None

    def finish_run(self) -> Iterable[Finding]:
        if not self._flags:
            return ()
        read: Set[str] = set()
        for path, attrs in self._reads.items():
            if path != self._defining_path:
                read |= attrs
        findings: List[Finding] = []
        for flag, (path, line, col) in sorted(self._flags.items()):
            if flag not in read:
                findings.append(
                    Finding(
                        rule=self.name,
                        path=path,
                        line=line,
                        col=col,
                        message=(
                            f"MADConfig flag `{flag}` is never read in "
                            "perf/ or sweep/ — a flag no cost formula "
                            "consults makes the optimization ladder "
                            "silently lie"
                        ),
                    )
                )
        return findings
