"""Whole-program analysis layer: symbol table, call graph, taint.

Modules here power the ``ProgramRule`` pass (``repro lint --program``):

* :mod:`~repro.lint.program.scopes` — shared path-scoping constants
  (which files are accounting core, volatile channels, exact-arith);
* :mod:`~repro.lint.program.symbols` — :class:`Program`: project
  symbol table + module/import resolution built from parsed trees;
* :mod:`~repro.lint.program.callgraph` — :class:`CallGraph` over the
  symbol table (def/use through imports and attribute access);
* :mod:`~repro.lint.program.taint` — interprocedural nondeterminism
  taint (``NondeterminismFlow``).
"""

from __future__ import annotations

from repro.lint.program.callgraph import CallGraph, CallSite
from repro.lint.program.symbols import Program

__all__ = ["CallGraph", "CallSite", "Program"]
