"""SchemaIdLiteral: a ``repro.*/v*`` id is spelled only in its declaration.

Each report family is declared once, as a :class:`repro.obs.schema.Schema`
whose first argument is the id.  Producers stamp ``FAMILY.id`` and readers
validate against ``FAMILY``; a raw id literal anywhere else is a second
home for the family or a version drifting from its validator.
"""

from __future__ import annotations

import ast
import re
from typing import Iterable, Optional, Set

from repro.lint.core import FileContext, Finding, Rule
from repro.lint.registry import register

__all__ = ["SchemaIdLiteral"]

_SCHEMA_ID = re.compile(r"repro(?:\.[a-z0-9_]+)+/v[0-9]+(?:\.[0-9]+)*")


@register
class SchemaIdLiteral(Rule):
    name = "SchemaIdLiteral"
    description = (
        "a repro.*/v* schema id appears as a literal only inside its "
        "Schema(...) declaration; everything else uses FAMILY.id"
    )
    node_types = (ast.Call, ast.Constant)

    def start_file(self, ctx: FileContext) -> None:
        self._declared: Set[int] = set()

    def visit(
        self, node: ast.AST, ctx: FileContext
    ) -> Optional[Iterable[Finding]]:
        # ast.walk is breadth-first: a Schema(...) call is seen before
        # the literals inside it.
        if isinstance(node, ast.Call):
            func = node.func
            if "Schema" in (getattr(func, "id", None), getattr(func, "attr", None)):
                self._declared.update(id(inner) for inner in ast.walk(node))
            return None
        assert isinstance(node, ast.Constant)
        if (
            isinstance(node.value, str)
            and _SCHEMA_ID.fullmatch(node.value)
            and id(node) not in self._declared
        ):
            return [
                self.finding(
                    ctx,
                    node,
                    f"schema id {node.value!r} spelled outside its Schema(...) "
                    "declaration; stamp and validate through the family "
                    "object (FAMILY.id, repro.obs.schema.validate)",
                )
            ]
        return None
