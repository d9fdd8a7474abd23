"""LedgerDiscipline: op/byte accounting flows through the ledger core.

MAD's headline numbers (−52 % DRAM traffic in Fig. 2, ×3 arithmetic
intensity in Fig. 3) are sums over ``CostReport`` objects.  A single
``dram_bytes += ...`` accumulated outside the cost model, or a mutation
of a shared ``CostReport``'s fields, silently skews every downstream
figure.  This rule confines raw cost-field arithmetic to the three
files that *are* the accounting core — ``perf/events.py`` (where the
fields and their operators are defined), ``perf/ledger.py`` and
``perf/cache.py`` — plus ``memsim/accounting.py``, the one file where
the trace-driven simulator is allowed to accumulate per-stream DRAM
byte counters (see :class:`~repro.lint.rules.tracing.TraceDiscipline`
for the memsim-side rules) — and requires everything else to build
fresh reports.

Two clauses:

* anywhere outside the core: assigning to (or augmenting) an attribute
  named like a cost field (``.ops``, ``.traffic``, ``.mults``,
  ``.adds``, per-stream byte fields, ``*_bytes``/``*_ops``) mutates
  shared cost state;
* inside ``perf/`` or ``sweep/`` but outside the core: ``name += ...``
  on a ``*_bytes``/``*_ops``-style local keeps a shadow total the
  ledger never sees (sweep evaluators aggregate cost reports across
  grid points — exactly where a shadow accumulator would hide).
"""

from __future__ import annotations

import ast
from typing import Iterable, List, Optional

from repro.lint.core import FileContext, Finding, Rule
from repro.lint.registry import register
from repro.lint.scopes import ACCOUNTING_CORE_FILES

__all__ = ["LedgerDiscipline"]

#: Field names of OpCount / MemTraffic / CostReport.
COST_FIELDS = frozenset(
    {"mults", "adds", "ct_read", "ct_write", "key_read", "pt_read", "ops", "traffic"}
)
_SUFFIXES = ("_bytes", "_ops")



def _is_cost_identifier(name: str) -> bool:
    return name in COST_FIELDS or name.endswith(_SUFFIXES)


def _flatten_targets(node: ast.AST) -> Iterable[ast.AST]:
    if isinstance(node, (ast.Tuple, ast.List)):
        for element in node.elts:
            yield from _flatten_targets(element)
    else:
        yield node


@register
class LedgerDiscipline(Rule):
    name = "LedgerDiscipline"
    description = (
        "cost accounting flows through CostReport/CostLedger: no mutation of "
        "cost fields and no raw *_bytes/*_ops accumulation (perf/ and "
        "sweep/) outside perf/events.py, perf/ledger.py, perf/cache.py, "
        "memsim/accounting.py"
    )
    node_types = (ast.Assign, ast.AugAssign)

    def visit(
        self, node: ast.AST, ctx: FileContext
    ) -> Optional[Iterable[Finding]]:
        assert isinstance(node, (ast.Assign, ast.AugAssign))
        if ctx.is_file(*ACCOUNTING_CORE_FILES):
            return None
        raw_targets = node.targets if isinstance(node, ast.Assign) else [node.target]
        findings: List[Finding] = []
        for target in raw_targets:
            for leaf in _flatten_targets(target):
                if isinstance(leaf, ast.Attribute) and _is_cost_identifier(leaf.attr):
                    findings.append(
                        self.finding(
                            ctx,
                            node,
                            f"mutates cost field `.{leaf.attr}` outside the "
                            "ledger core — cost primitives must return fresh "
                            "CostReports, never mutate shared ones",
                        )
                    )
                elif (
                    isinstance(node, ast.AugAssign)
                    and isinstance(leaf, ast.Name)
                    and _is_cost_identifier(leaf.id)
                    and (ctx.in_dir("perf") or ctx.in_dir("sweep"))
                ):
                    where = "perf" if ctx.in_dir("perf") else "sweep"
                    findings.append(
                        self.finding(
                            ctx,
                            node,
                            f"raw accumulation into `{leaf.id}` in "
                            f"{where}/ "
                            "— route op/byte totals through CostLedger/"
                            "CostReport so figures stay trustworthy",
                        )
                    )
        return findings
