"""Project symbol table and module resolution for the program pass.

The per-file rules see one tree at a time; the program rule
(:mod:`repro.lint.program.taint`) needs to answer questions like "which
function does ``obs.capture()`` name in this module?" across the whole
package.
:class:`Program` holds the answer:

* every module parsed into a :class:`ModuleTable` — its top-level
  functions, classes (with methods and dataclass-style fields) and
  import aliases;
* a flat qualname → :class:`FunctionInfo` index;
* :meth:`Program.resolve_name` / :meth:`Program.resolve_call`, which
  chase import aliases (``import x as y``, ``from x import y as z``,
  relative imports) and attribute access on known module objects to a
  project-internal qualname or an external dotted name.

Module names are derived from the file path relative to the scanned
root, so the table works identically for the shipped ``src/repro``
tree and for fixture trees written under pytest tmp dirs; resolution
matches imports against known modules exactly first, then by dotted
suffix (``perf.primitives`` in a fixture tree answers for
``repro.perf.primitives``).
"""

from __future__ import annotations

import ast
from dataclasses import dataclass, field
from pathlib import PurePosixPath
from typing import Dict, List, Optional, Sequence, Tuple

__all__ = [
    "ClassTable",
    "FunctionInfo",
    "ImportTarget",
    "ModuleTable",
    "Program",
    "Resolution",
]


@dataclass(frozen=True)
class ImportTarget:
    """What an imported alias refers to: a module, or a symbol in one."""

    module: str
    symbol: Optional[str] = None

    @property
    def dotted(self) -> str:
        return f"{self.module}.{self.symbol}" if self.symbol else self.module


@dataclass
class FunctionInfo:
    """One function or method definition in the project."""

    qualname: str  #: ``module.func`` or ``module.Class.func``
    module: str
    path: str  #: display path of the defining file
    node: ast.AST  #: FunctionDef | AsyncFunctionDef
    class_name: Optional[str] = None

    @property
    def name(self) -> str:
        return self.qualname.rsplit(".", 1)[1]

    @property
    def lineno(self) -> int:
        return getattr(self.node, "lineno", 1)


@dataclass
class ClassTable:
    """A class definition: its methods and (annotated) field order."""

    name: str
    qualname: str
    node: ast.ClassDef
    methods: Dict[str, FunctionInfo] = field(default_factory=dict)
    #: AnnAssign field names in declaration order (dataclass call mapping).
    fields: List[str] = field(default_factory=list)


@dataclass
class ModuleTable:
    """Everything the program pass knows about one module."""

    name: str  #: dotted module name, e.g. ``repro.obs.export``
    path: str  #: display path
    tree: ast.Module
    functions: Dict[str, FunctionInfo] = field(default_factory=dict)
    classes: Dict[str, ClassTable] = field(default_factory=dict)
    imports: Dict[str, ImportTarget] = field(default_factory=dict)

    @property
    def package(self) -> str:
        return self.name.rsplit(".", 1)[0] if "." in self.name else ""


@dataclass(frozen=True)
class Resolution:
    """Outcome of resolving a name/call target.

    ``kind`` is ``"project"`` (``name`` is a project qualname),
    ``"external"`` (``name`` is a dotted name outside the scanned tree,
    e.g. ``time.perf_counter``) or ``"unknown"`` (an attribute on a
    non-module object; ``name`` is the terminal attribute).
    """

    kind: str
    name: str


def _module_name_from_parts(parts: Tuple[str, ...]) -> str:
    """Dotted module name for a path relative to the scan root."""
    names = list(parts)
    if names and names[-1].endswith(".py"):
        names[-1] = names[-1][:-3]
    if names and names[-1] == "__init__":
        names = names[:-1]
    return ".".join(names) if names else "__root__"


def _relative_parts(path: str, root_parts: Tuple[str, ...]) -> Tuple[str, ...]:
    parts = PurePosixPath(path.replace("\\", "/")).parts
    if root_parts and parts[: len(root_parts)] == root_parts:
        parts = parts[len(root_parts):]
    return parts


class Program:
    """Whole-program symbol table over one scanned file set."""

    def __init__(self) -> None:
        self.modules: Dict[str, ModuleTable] = {}
        self.functions: Dict[str, FunctionInfo] = {}
        #: display path -> module name (per-file rule interop).
        self.by_path: Dict[str, str] = {}

    # ------------------------------------------------------------------
    # Construction
    # ------------------------------------------------------------------
    @classmethod
    def build(cls, files: Sequence[Tuple[str, ast.Module]]) -> "Program":
        """Build the table from ``(display_path, parsed tree)`` pairs.

        The deepest common directory of all files is taken as the scan
        root; module names are dotted paths below it.  The result is
        independent of the order of ``files``.
        """
        program = cls()
        ordered = sorted(files, key=lambda item: item[0])
        root = _common_root([path for path, _ in ordered])
        for path, tree in ordered:
            parts = _relative_parts(path, root)
            name = _module_name_from_parts(parts)
            table = _build_module(name, path, tree)
            program.modules[name] = table
            program.by_path[path] = name
            for info in table.functions.values():
                program.functions[info.qualname] = info
            for klass in table.classes.values():
                for info in klass.methods.values():
                    program.functions[info.qualname] = info
        return program

    # ------------------------------------------------------------------
    # Resolution
    # ------------------------------------------------------------------
    def module_named(self, dotted: str) -> Optional[ModuleTable]:
        """Exact match first, then unique dotted-suffix match."""
        table = self.modules.get(dotted)
        if table is not None:
            return table
        tail = "." + dotted
        matches = sorted(
            name for name in self.modules if name.endswith(tail)
        )
        if len(matches) == 1:
            return self.modules[matches[0]]
        # A fixture tree scanned from inside the package: the import
        # says ``repro.perf.primitives`` but the module registered as
        # ``perf.primitives``.
        matches = sorted(
            name
            for name in self.modules
            if dotted.endswith("." + name) or dotted == name
        )
        if len(matches) == 1:
            return self.modules[matches[0]]
        return None

    def resolve_name(
        self, module: ModuleTable, name: str
    ) -> Optional[Resolution]:
        """What a bare identifier refers to at module scope."""
        if name in module.functions:
            return Resolution("project", module.functions[name].qualname)
        if name in module.classes:
            return Resolution("project", module.classes[name].qualname)
        target = module.imports.get(name)
        if target is None:
            return None
        if target.symbol is None:
            imported = self.module_named(target.module)
            if imported is not None:
                return Resolution("project-module", imported.name)
            return Resolution("external", target.module)
        imported = self.module_named(target.module)
        if imported is not None:
            if target.symbol in imported.functions:
                return Resolution(
                    "project", imported.functions[target.symbol].qualname
                )
            if target.symbol in imported.classes:
                return Resolution(
                    "project", imported.classes[target.symbol].qualname
                )
            # ``from pkg import submodule``
            sub = self.module_named(f"{target.module}.{target.symbol}")
            if sub is not None:
                return Resolution("project-module", sub.name)
        return Resolution("external", target.dotted)

    def resolve_dotted(
        self, module: ModuleTable, chain: Sequence[str]
    ) -> Optional[Resolution]:
        """Resolve ``a.b.c`` where ``a`` is a name in ``module``'s scope."""
        if not chain:
            return None
        head = self.resolve_name(module, chain[0])
        if head is None:
            return None
        rest = list(chain[1:])
        current = head
        while rest:
            attr = rest.pop(0)
            if current.kind == "project-module":
                owner = self.modules.get(current.name)
                if owner is None:
                    return Resolution("external", f"{current.name}.{attr}")
                nxt = self.resolve_name(owner, attr)
                if nxt is None:
                    sub = self.module_named(f"{owner.name}.{attr}")
                    if sub is not None:
                        nxt = Resolution("project-module", sub.name)
                    else:
                        return Resolution(
                            "external", f"{owner.name}.{attr}"
                        )
                current = nxt
            elif current.kind == "project":
                # Attribute on a project class: a method lookup.
                info = self.functions.get(f"{current.name}.{attr}")
                if info is not None:
                    current = Resolution("project", info.qualname)
                else:
                    return Resolution("unknown", attr)
            else:  # external
                current = Resolution("external", f"{current.name}.{attr}")
        return current

    def resolve_call(
        self, module: ModuleTable, call: ast.Call, class_name: Optional[str] = None
    ) -> Resolution:
        """Resolve a call target to project/external/unknown.

        ``class_name`` is the enclosing class for ``self.method()``
        resolution.
        """
        chain = _attribute_chain(call.func)
        if chain is None:
            return Resolution("unknown", "")
        if chain[0] == "self" and class_name is not None and len(chain) == 2:
            info = self.functions.get(
                f"{module.name}.{class_name}.{chain[1]}"
            )
            if info is not None:
                return Resolution("project", info.qualname)
            return Resolution("unknown", chain[1])
        resolved = self.resolve_dotted(module, chain)
        if resolved is None:
            if len(chain) == 1:
                # Unresolved bare name: a builtin or a local variable.
                return Resolution("external", chain[0])
            return Resolution("unknown", chain[-1])
        if resolved.kind == "project-module":
            # Calling a module object is nonsense; treat as unknown.
            return Resolution("unknown", chain[-1])
        return resolved


def _attribute_chain(node: ast.AST) -> Optional[List[str]]:
    """``a.b.c`` -> ["a", "b", "c"]; None when the base isn't a Name."""
    parts: List[str] = []
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    if isinstance(node, ast.Name):
        parts.append(node.id)
        return list(reversed(parts))
    return None


def _common_root(paths: Sequence[str]) -> Tuple[str, ...]:
    split = [
        PurePosixPath(p.replace("\\", "/")).parts[:-1] for p in paths
    ]
    if not split:
        return ()
    prefix = split[0]
    for parts in split[1:]:
        shared = 0
        for a, b in zip(prefix, parts):
            if a != b:
                break
            shared += 1
        prefix = prefix[:shared]
    return prefix


def _build_module(name: str, path: str, tree: ast.Module) -> ModuleTable:
    table = ModuleTable(name=name, path=path, tree=tree)
    for stmt in tree.body:
        if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef)):
            table.functions[stmt.name] = FunctionInfo(
                qualname=f"{name}.{stmt.name}",
                module=name,
                path=path,
                node=stmt,
            )
        elif isinstance(stmt, ast.ClassDef):
            klass = ClassTable(
                name=stmt.name, qualname=f"{name}.{stmt.name}", node=stmt
            )
            for member in stmt.body:
                if isinstance(member, (ast.FunctionDef, ast.AsyncFunctionDef)):
                    klass.methods[member.name] = FunctionInfo(
                        qualname=f"{name}.{stmt.name}.{member.name}",
                        module=name,
                        path=path,
                        node=member,
                        class_name=stmt.name,
                    )
                elif isinstance(member, ast.AnnAssign) and isinstance(
                    member.target, ast.Name
                ):
                    klass.fields.append(member.target.id)
            table.classes[stmt.name] = klass
        elif isinstance(stmt, (ast.Import, ast.ImportFrom)):
            _record_import(table, name, stmt, overwrite=True)
    # Function-local imports (cycle avoidance is idiomatic here) resolve
    # too; module-level bindings win on alias collision.
    top_level = set(tree.body)
    for node in ast.walk(tree):
        if isinstance(node, (ast.Import, ast.ImportFrom)) and node not in top_level:
            _record_import(table, name, node, overwrite=False)
    return table


def _record_import(
    table: ModuleTable,
    name: str,
    stmt: "ast.Import | ast.ImportFrom",
    overwrite: bool,
) -> None:
    def bind(local: str, target: ImportTarget) -> None:
        if overwrite or local not in table.imports:
            table.imports[local] = target

    if isinstance(stmt, ast.Import):
        for alias in stmt.names:
            local = alias.asname or alias.name.split(".")[0]
            target = alias.name if alias.asname else alias.name.split(".")[0]
            bind(local, ImportTarget(module=target))
        return
    base = stmt.module or ""
    if stmt.level:
        pkg_parts = name.split(".")
        # level 1 = current package, 2 = its parent, ...
        keep = len(pkg_parts) - stmt.level
        prefix = ".".join(pkg_parts[: max(keep, 0)])
        base = f"{prefix}.{base}".strip(".") if base else prefix
    for alias in stmt.names:
        if alias.name == "*":
            continue
        bind(
            alias.asname or alias.name,
            ImportTarget(module=base or "__root__", symbol=alias.name),
        )
