"""The source tree's domain invariants, as plain rules over ``ast``.

MAD's headline numbers (Fig. 2's DRAM-traffic reduction, Fig. 3's
arithmetic-intensity gains) are sums over closed-form op and byte
counters.  Eight rules keep those sums honest: every op and byte flows
through ``CostReport``/``CostLedger``, span labels stay stable so cost
diffs align across refactors, the exact modular-arithmetic paths never
touch floats, and so on.  Each rule's docstring gives the reason for its
invariant.

Seven rules read one file at a time: ``rule(path, tree)`` yields
``(node, message)`` for every violation.  ``config_flag_coverage`` reads
the whole tree: ``{path: tree}`` in, ``(path, node, message)`` out.
:func:`findings` runs either kind and returns sorted :class:`Finding`s.

``test_src_repro_satisfies[<rule>]`` runs each rule over ``src/repro``,
parsed once per session.  A finding fails it unless :data:`ALLOWED`
names it, and every allowlist entry must match a live finding, so an
entry cannot outlive the code it excuses.  Fixture cases for each rule
are in ``tests/test_invariant_rules.py``.

Report determinism is not a rule here: ``tests/test_determinism.py``
checks it by running each report producer under several hash seeds.
"""

import ast
import re
from pathlib import Path, PurePosixPath
from typing import NamedTuple

import pytest

import repro

SRC = Path(repro.__file__).resolve().parent
#: Findings name files relative to this directory (``src/repro/...``).
ROOT = SRC.parents[1]


# ----------------------------------------------------------------------
# Scopes: where each rule applies.  A tail ending in ``.py`` matches a
# path that ends with it; any other entry names a directory component.
# ----------------------------------------------------------------------
#: The accounting core where cost-field arithmetic is definitionally OK
#: (:func:`ledger_discipline`).
ACCOUNTING_CORE_FILES = (
    "perf/events.py",
    "perf/ledger.py",
    "perf/cache.py",
    "memsim/accounting.py",
)

#: Exact integer paths that must stay float-free
#: (:func:`exact_arith_purity`).
EXACT_DIRS = ("numth", "ring")

#: The vectorized arithmetic kernels: exact like :data:`EXACT_DIRS` —
#: every value is an int64/uint64 residue and the differential tests
#: assert bit-identity against the pure-Python oracle — but numpy is the
#: whole point, so only the numpy-import check is waived there.
KERNEL_DIRS = ("kernels",)

#: The one kernel module allowed float arithmetic: the four-step NTT,
#: whose float64 values are integers below ``2**53`` by the proof in its
#: docstring.
FLOAT_KERNEL_FILE = "kernels/fourstep.py"

#: Exact paths where the numpy-import check is waived: the kernels, and
#: ``ring/``, whose residue matrices are int64 (moduli below ``2**30``)
#: or Python-int ``object`` arrays.  Floats, ``/`` and non-exact
#: ``math.*`` stay banned in both.
NUMPY_EXACT_DIRS = KERNEL_DIRS + ("ring",)

#: The sole sanctioned module for host resource sampling
#: (:func:`telemetry_discipline`).
PROFILER_HOME = "obs/profiler.py"

#: Where direct memsim trace-event construction is definitionally OK
#: (:func:`trace_discipline`).
MEMSIM_TRACE_HOME = "memsim/trace.py"

#: The sole sanctioned accumulation site for simulated byte counters
#: (:func:`trace_discipline`).
MEMSIM_ACCOUNTING_HOME = "memsim/accounting.py"

SCOPES = {
    "ACCOUNTING_CORE_FILES": ACCOUNTING_CORE_FILES,
    "EXACT_DIRS": EXACT_DIRS,
    "FLOAT_KERNEL_FILE": (FLOAT_KERNEL_FILE,),
    "KERNEL_DIRS": KERNEL_DIRS,
    "MEMSIM_ACCOUNTING_HOME": (MEMSIM_ACCOUNTING_HOME,),
    "MEMSIM_TRACE_HOME": (MEMSIM_TRACE_HOME,),
    "NUMPY_EXACT_DIRS": NUMPY_EXACT_DIRS,
    "PROFILER_HOME": (PROFILER_HOME,),
}


def in_dir(path, *names):
    """Is any of ``names`` a directory component of ``path``?"""
    return any(name in PurePosixPath(path).parts for name in names)


def is_file(path, *tails):
    """Does ``path`` end with any of the given POSIX tails?"""
    return any(path.endswith(tail) for tail in tails)


# ----------------------------------------------------------------------
# LedgerDiscipline
# ----------------------------------------------------------------------
#: Field names of OpCount / MemTraffic / CostReport.
COST_FIELDS = frozenset(
    {"mults", "adds", "ct_read", "ct_write", "key_read", "pt_read", "ops", "traffic"}
)


def _is_cost_identifier(name):
    return name in COST_FIELDS or name.endswith(("_bytes", "_ops"))


def _flatten_targets(node):
    if isinstance(node, (ast.Tuple, ast.List)):
        for element in node.elts:
            yield from _flatten_targets(element)
    else:
        yield node


def ledger_discipline(path, tree):
    """Op/byte accounting flows through the ledger core.

    MAD's headline numbers (−52 % DRAM traffic in Fig. 2, ×3 arithmetic
    intensity in Fig. 3) are sums over ``CostReport`` objects.  A single
    ``dram_bytes += ...`` accumulated outside the cost model, or a
    mutation of a shared ``CostReport``'s fields, silently skews every
    downstream figure.  This rule confines raw cost-field arithmetic to
    the files that *are* the accounting core — ``perf/events.py`` (where
    the fields and their operators are defined), ``perf/ledger.py`` and
    ``perf/cache.py`` — plus ``memsim/accounting.py``, the one file where
    the trace-driven simulator accumulates per-stream DRAM byte counters
    (:func:`trace_discipline` holds the memsim side) — and requires
    everything else to build fresh reports.

    Two clauses:

    * anywhere outside the core: assigning to (or augmenting) an
      attribute named like a cost field (``.ops``, ``.traffic``,
      ``.mults``, ``.adds``, per-stream byte fields, ``*_bytes``/``*_ops``)
      mutates shared cost state;
    * inside ``perf/`` or ``sweep/`` but outside the core: ``name += ...``
      on a ``*_bytes``/``*_ops``-style local keeps a shadow total the
      ledger never sees (sweep evaluators aggregate cost reports across
      grid points — exactly where a shadow accumulator would hide).
    """
    if is_file(path, *ACCOUNTING_CORE_FILES):
        return
    for node in ast.walk(tree):
        if isinstance(node, ast.Assign):
            targets = node.targets
        elif isinstance(node, ast.AugAssign):
            targets = [node.target]
        else:
            continue
        for target in targets:
            for leaf in _flatten_targets(target):
                if isinstance(leaf, ast.Attribute) and _is_cost_identifier(leaf.attr):
                    yield node, (
                        f"mutates cost field `.{leaf.attr}` outside the "
                        "ledger core — cost primitives must return fresh "
                        "CostReports, never mutate shared ones"
                    )
                elif (
                    isinstance(node, ast.AugAssign)
                    and isinstance(leaf, ast.Name)
                    and _is_cost_identifier(leaf.id)
                    and in_dir(path, "perf", "sweep")
                ):
                    where = "perf" if in_dir(path, "perf") else "sweep"
                    yield node, (
                        f"raw accumulation into `{leaf.id}` in {where}/ "
                        "— route op/byte totals through CostLedger/"
                        "CostReport so figures stay trustworthy"
                    )


# ----------------------------------------------------------------------
# SpanLabelStability
# ----------------------------------------------------------------------
def _is_str_constant(node):
    return isinstance(node, ast.Constant) and isinstance(node.value, str)


def _label_problem(label):
    if isinstance(label, ast.JoinedStr) and any(
        isinstance(value, ast.FormattedValue) for value in label.values
    ):
        return "f-string interpolation"
    if isinstance(label, ast.BinOp):
        if isinstance(label.op, ast.Mod) and (
            _is_str_constant(label.left) or isinstance(label.left, ast.JoinedStr)
        ):
            return "%-formatting"
        if isinstance(label.op, ast.Add) and (
            _is_str_constant(label.left) or _is_str_constant(label.right)
        ):
            return "string concatenation"
    if (
        isinstance(label, ast.Call)
        and isinstance(label.func, ast.Attribute)
        and label.func.attr == "format"
    ):
        return ".format() call"
    if isinstance(label, ast.Starred):
        return "starred argument"
    return None


def span_label_stability(path, tree):
    """Span labels are static cross-run alignment keys.

    ``repro.obs.diff`` aligns two run reports span by span on the
    hierarchical *label path* (repeated siblings get ``#k`` occurrence
    suffixes).  A label interpolating a loop variable —
    ``span(f"CoeffToSlot {i}")`` — makes every iteration a distinct
    path, so the diff/bench harness sees a wall of added/removed spans
    instead of a cost delta.  Volatile values belong in span *attrs*:
    ``span("CoeffToSlot:iter", iter=i)``.

    Flagged: dynamically-built labels (f-strings, ``%``-formatting,
    ``str.format``, constant+variable concatenation, starred arguments)
    as the first positional argument of any ``*.span(...)`` /
    ``span(...)`` call.  Plain names are allowed: binding a label from a
    static table is a legitimate pattern (``for name, cost in ops:
    span(name)``).
    """
    for node in ast.walk(tree):
        if not isinstance(node, ast.Call) or not node.args:
            continue
        func = node.func
        if not (
            (isinstance(func, ast.Attribute) and func.attr == "span")
            or (isinstance(func, ast.Name) and func.id == "span")
        ):
            continue
        label = node.args[0]
        problem = _label_problem(label)
        if problem is not None:
            yield label, (
                f"{problem} in span label — labels are cross-run alignment "
                "keys; keep them static and move volatile values into span "
                "attrs (e.g. span(\"Phase:iter\", iter=i))"
            )


# ----------------------------------------------------------------------
# ExactArithPurity
# ----------------------------------------------------------------------
#: math functions that are exact on integers.
EXACT_MATH = frozenset({"gcd", "isqrt", "lcm", "comb", "perm", "factorial", "prod"})

_NUMPY_IMPORT = (
    "numpy import in an exact modular-arithmetic path — its dtypes are "
    "floats or silently-overflowing fixed-width ints"
)


def exact_arith_purity(path, tree):
    """The modular-arithmetic paths stay float-free.

    ``numth/`` and ``ring/`` implement exact RNS arithmetic — NTTs over
    prime fields, CRT reconstruction, basis conversion.  The trace-parity
    tests assert traced and untraced runs are *bit-identical*; one float
    sneaking into these paths (a ``/`` instead of ``//`` or
    ``mod_inverse``, a ``math.log2``, a numpy float dtype) turns exact
    integer results into approximations and breaks that guarantee
    silently on large operands (floats lose integer precision past
    2**53).

    Flagged inside ``numth/`` and ``ring/``:

    * true division ``/`` (including ``/=``);
    * ``float``/``complex`` literals and the ``float()``/``complex()``
      builtins;
    * ``math.*`` attributes outside the exact integer subset
      (:data:`EXACT_MATH`);
    * any ``numpy`` import (its integer dtypes overflow silently and its
      default dtypes are floats).

    ``kernels/`` is held to the same float-free standard — its
    int64/uint64 residue arrays must stay bit-identical to the oracle —
    except for the numpy-import check, which is waived there because
    vectorizing over numpy is the package's entire purpose (overflow
    safety is carried by the ``q < 2**30`` headroom argument in its
    module docstrings and enforced by the differential tests).  ``ring/``
    gets the same waiver: its limbs are one int64 matrix per element
    below that bound and a Python-int ``object`` matrix above it.
    ``numth/`` stays numpy-free — it is the pure-Python oracle.

    One file is exempt by name: ``kernels/fourstep.py``
    (:data:`FLOAT_KERNEL_FILE`), the NTT as exact float64 matrix
    products.  BLAS has no exact integer product, and its float64 one is
    exact when every partial sum is an integer below ``2**53``, which
    that module's docstring proves for every table and every modulus
    below ``2**30`` and its worst-case tests pin.  Keeping all float code
    in that one module, with the proof beside it, keeps the rest of
    ``kernels/`` checkable; no other kernel file gets the exemption.
    """
    if not in_dir(path, *KERNEL_DIRS, *EXACT_DIRS) or is_file(path, FLOAT_KERNEL_FILE):
        return
    numpy_allowed = in_dir(path, *NUMPY_EXACT_DIRS)
    for node in ast.walk(tree):
        if isinstance(node, (ast.BinOp, ast.AugAssign)) and isinstance(
            node.op, ast.Div
        ):
            yield node, (
                "true division `/` in an exact modular-arithmetic path — "
                "use `//` or repro.numth.modular.mod_inverse"
            )
        elif isinstance(node, ast.Constant) and isinstance(
            node.value, (float, complex)
        ):
            yield node, (
                f"{type(node.value).__name__} literal {node.value!r} in an "
                "exact modular-arithmetic path — floats lose integer "
                "precision past 2**53"
            )
        elif (
            isinstance(node, ast.Call)
            and isinstance(node.func, ast.Name)
            and node.func.id in ("float", "complex")
        ):
            yield node, (
                f"`{node.func.id}()` conversion in an exact "
                "modular-arithmetic path"
            )
        elif (
            isinstance(node, ast.Attribute)
            and isinstance(node.value, ast.Name)
            and node.value.id == "math"
            and node.attr not in EXACT_MATH
        ):
            yield node, (
                f"`math.{node.attr}` is not exact on integers; only "
                f"{', '.join(sorted(EXACT_MATH))} are allowed here"
            )
        elif numpy_allowed:
            continue
        elif isinstance(node, ast.Import):
            if any(alias.name.split(".")[0] == "numpy" for alias in node.names):
                yield node, _NUMPY_IMPORT
        elif isinstance(node, ast.ImportFrom):
            if (node.module or "").split(".")[0] == "numpy":
                yield node, _NUMPY_IMPORT


# ----------------------------------------------------------------------
# UnitsHygiene
# ----------------------------------------------------------------------
BYTES = "bytes"
OPS = "ops"
_MIXED = "mixed"

_BYTE_FIELDS = frozenset({"ct_read", "ct_write", "key_read", "pt_read", "traffic"})
_OP_FIELDS = frozenset({"mults", "adds", "ops"})


def _ident_unit(name):
    name = name.lstrip("_")
    if name.endswith("bytes") or name in _BYTE_FIELDS:
        return BYTES
    if name.endswith("_ops") or name in _OP_FIELDS:
        return OPS
    return None


def _unit(expr):
    """BYTES/OPS when the expression's unit is definite, else None/_MIXED."""
    if isinstance(expr, ast.Name):
        return _ident_unit(expr.id)
    if isinstance(expr, ast.Attribute):
        unit = _ident_unit(expr.attr)
        # `cost.traffic.total` — `total` carries no unit, the receiver does.
        return unit if unit is not None else _unit(expr.value)
    if isinstance(expr, ast.Call):
        func = expr.func
        if isinstance(func, ast.Name):
            return _ident_unit(func.id)
        if isinstance(func, ast.Attribute):
            return _ident_unit(func.attr)
        return None
    if isinstance(expr, ast.BinOp):
        if isinstance(expr.op, (ast.Add, ast.Sub)):
            left, right = _unit(expr.left), _unit(expr.right)
            if _MIXED in (left, right):
                return _MIXED
            if left and right and left != right:
                return _MIXED
            return left or right
        return None  # *, /, //, %, ... derive new units
    if isinstance(expr, ast.UnaryOp):
        return _unit(expr.operand)
    if isinstance(expr, ast.IfExp):
        body, orelse = _unit(expr.body), _unit(expr.orelse)
        return body if body == orelse else None
    return None


def _definite(unit):
    return unit in (BYTES, OPS)


def units_hygiene(path, tree):
    """Byte-valued and op-valued expressions never mix.

    The model's two currencies — modular operations and DRAM bytes —
    share the int type, so nothing at runtime stops ``total_bytes =
    cost.ops.total`` or ``ops + traffic_bytes``.  Such a slip
    re-denominates an axis of the roofline (Fig. 3 plots ops/byte)
    without any test necessarily failing.

    Unit inference is deliberately conservative and purely lexical:

    * ``*bytes`` identifiers and the ``MemTraffic`` stream fields
      (``ct_read``/``ct_write``/``key_read``/``pt_read``/``traffic``) are
      byte-valued;
    * ``*_ops`` identifiers and the ``OpCount`` fields
      (``mults``/``adds``/``ops``) are op-valued;
    * ``+``/``-`` preserve units and require both sides to agree; ``*``
      and ``/`` derive new units (scaling and arithmetic intensity are
      legal), so their results are unknown and never flagged.

    Findings: adding/subtracting bytes with ops, assigning a definite
    byte-valued expression to an ``*_ops`` name (or vice versa), and
    ``*_bytes``/``*_ops``-named functions returning the other unit — the
    naming contract ``MemTraffic``/``OpCount`` accessors follow.
    """
    for node in ast.walk(tree):
        if isinstance(node, ast.BinOp):
            if not isinstance(node.op, (ast.Add, ast.Sub)):
                continue
            if {_unit(node.left), _unit(node.right)} == {BYTES, OPS}:
                verb = "adds" if isinstance(node.op, ast.Add) else "subtracts"
                yield node, (
                    f"{verb} a byte-valued and an op-valued expression — the "
                    "model's two currencies never mix additively"
                )
        elif isinstance(node, (ast.Assign, ast.AnnAssign, ast.AugAssign)):
            if node.value is None:  # annotation without value
                continue
            value_unit = _unit(node.value)
            if not _definite(value_unit):
                continue
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            for target in targets:
                if isinstance(target, ast.Name):
                    label = target.id
                elif isinstance(target, ast.Attribute):
                    label = target.attr
                else:
                    continue
                target_unit = _ident_unit(label)
                if _definite(target_unit) and target_unit != value_unit:
                    yield node, (
                        f"assigns a {value_unit}-valued expression to "
                        f"`{label}` — rename the target or fix the "
                        "expression; units must agree"
                    )
        elif isinstance(node, ast.FunctionDef):
            name_unit = _ident_unit(node.name)
            if not _definite(name_unit):
                continue
            for stmt in ast.walk(node):
                if isinstance(stmt, ast.Return) and stmt.value is not None:
                    value_unit = _unit(stmt.value)
                    if _definite(value_unit) and value_unit != name_unit:
                        yield stmt, (
                            f"`{node.name}` is named as a {name_unit} accessor "
                            f"but returns a {value_unit}-valued expression"
                        )


# ----------------------------------------------------------------------
# TraceDiscipline
# ----------------------------------------------------------------------
#: Trace event types that must be emitted via TraceRecorder.
EVENT_TYPES = frozenset({"Access", "BulkAccess", "PinEvent", "FlushEvent"})


def _terminal_name(node):
    """The last identifier of a name or attribute chain (``m.Access``)."""
    if isinstance(node, ast.Name):
        return node.id
    if isinstance(node, ast.Attribute):
        return node.attr
    return None


def trace_discipline(path, tree):
    """Memsim traces and counters stay behind their APIs.

    The differential validation in :mod:`repro.memsim.validate` is only
    as trustworthy as the traces it replays.  Two invariants keep it
    honest:

    * **Events come from the recorder.**  ``TraceRecorder`` is the one
      sanctioned emitter of trace events: it owns block identity (buffer
      allocation), validates streams and bounds, and counts what it emits
      into the metrics registry.  A schedule generator that constructs
      ``Access``/``BulkAccess``/``PinEvent``/``FlushEvent`` objects by
      hand bypasses all of that — a typo'd stream name or out-of-range
      block id would silently skew the simulated DRAM totals the
      validator compares against the analytical model.  Direct
      construction is therefore allowed only in ``memsim/trace.py``,
      where the types are defined.

    * **Byte counters live in the accounting module.**  Simulated
      per-stream DRAM bytes accumulate in exactly one place,
      ``memsim/accounting.py`` (:class:`repro.memsim.accounting.DramCounters`),
      mirroring how :func:`ledger_discipline` confines analytical cost
      arithmetic to the ledger core.  Any ``*_bytes += ...`` elsewhere
      under ``memsim/`` is a shadow total the differential comparison
      never sees.
    """
    trace_home = is_file(path, MEMSIM_TRACE_HOME)
    counted = in_dir(path, "memsim") and not is_file(path, MEMSIM_ACCOUNTING_HOME)
    for node in ast.walk(tree):
        if isinstance(node, ast.Call) and not trace_home:
            name = _terminal_name(node.func)
            if name in EVENT_TYPES:
                yield node, (
                    f"constructs trace event `{name}(...)` directly — emit "
                    "events through the TraceRecorder API (read/write/scratch/"
                    "pin/flush) so block identity, stream names and bounds stay "
                    "validated"
                )
        elif isinstance(node, ast.AugAssign) and counted:
            name = _terminal_name(node.target)
            if name is not None and name.endswith("_bytes"):
                yield node, (
                    f"accumulates `{name}` outside memsim/accounting.py — "
                    "simulated DRAM bytes must flow through DramCounters so the "
                    "differential validator sees every byte"
                )


# ----------------------------------------------------------------------
# TelemetryDiscipline
# ----------------------------------------------------------------------
#: Modules whose *any* attribute call is a resource-sampling site.
_SAMPLING_MODULES = frozenset({"resource", "tracemalloc", "psutil"})

#: ``module.attr`` pairs that sample when the module match alone is too
#: broad (``gc`` and ``time`` have plenty of legitimate other uses).
_SAMPLING_CALLS = frozenset(
    {
        ("gc", "get_stats"),
        ("gc", "get_count"),
        ("time", "process_time"),
        ("time", "process_time_ns"),
    }
)


def telemetry_discipline(path, tree):
    """Host resource sampling stays in one file.

    ``obs/profiler.py`` is the single place in ``src/`` that reads
    ``resource.getrusage``, ``tracemalloc``, ``gc.get_stats`` /
    ``gc.get_count``, ``time.process_time`` or ``psutil``.  Resource
    samples carry platform quirks (``ru_maxrss`` units differ between
    Linux and macOS) and real overhead (a tracemalloc peak read costs
    microseconds); keeping every sampling site in one module means the
    overhead budget and the normalisation rules are reviewable in one
    place — and that :func:`repro.obs.telemetry.strip_volatile` knows
    every field it must strip before determinism comparisons.
    """
    if is_file(path, PROFILER_HOME):
        return
    for node in ast.walk(tree):
        if not (
            isinstance(node, ast.Call)
            and isinstance(node.func, ast.Attribute)
            and isinstance(node.func.value, ast.Name)
        ):
            continue
        module, attr = node.func.value.id, node.func.attr
        if module in _SAMPLING_MODULES or (module, attr) in _SAMPLING_CALLS:
            yield node, (
                f"samples host resources via `{module}.{attr}(...)` outside "
                "obs/profiler.py — route through repro.obs.profiler "
                "(rss_peak_bytes / process_cpu_seconds / ResourceMeter / "
                "profiled_span) so units, overhead and volatile-field "
                "stripping stay centralised"
            )


# ----------------------------------------------------------------------
# SchemaIdLiteral
# ----------------------------------------------------------------------
_SCHEMA_ID = re.compile(r"repro(?:\.[a-z0-9_]+)+/v[0-9]+(?:\.[0-9]+)*")


def schema_id_literal(path, tree):
    """A ``repro.*/v*`` id is spelled only in its declaration.

    Each report family is declared once, as a
    :class:`repro.obs.schema.Schema` whose first argument is the id.
    Producers stamp ``FAMILY.id`` and readers validate against
    ``FAMILY``; a raw id literal anywhere else is a second home for the
    family or a version drifting from its validator.
    """
    declared = {
        id(inner)
        for node in ast.walk(tree)
        if isinstance(node, ast.Call)
        and "Schema" in (getattr(node.func, "id", None), getattr(node.func, "attr", None))
        for inner in ast.walk(node)
    }
    for node in ast.walk(tree):
        if (
            isinstance(node, ast.Constant)
            and isinstance(node.value, str)
            and _SCHEMA_ID.fullmatch(node.value)
            and id(node) not in declared
        ):
            yield node, (
                f"schema id {node.value!r} spelled outside its Schema(...) "
                "declaration; stamp and validate through the family "
                "object (FAMILY.id, repro.obs.schema.validate)"
            )


# ----------------------------------------------------------------------
# ConfigFlagCoverage: the one rule that reads the whole tree
# ----------------------------------------------------------------------
def config_flag_coverage(trees):
    """Every ``MADConfig`` flag drives the model.

    Each boolean on :class:`repro.perf.optimizations.MADConfig` claims to
    reproduce one MAD technique (O(1)/O(beta)/O(alpha) caching, limb
    re-ordering, ModDown merge/hoist, key compression).  A flag that no
    cost formula ever reads is a reproduction bug: the ladder figures
    would show an "optimization" that changes nothing.

    The rule collects ``MADConfig``'s dataclass fields wherever the class
    is defined, and every attribute name read in ``perf/`` and ``sweep/``
    files *other than* the defining module (whose ``__post_init__``
    validation reads don't count as model coverage; sweep evaluators
    dispatch on the same flags when building ablation grids, so their
    reads count too).  It reports each flag with no read, anchored at
    the flag's definition.
    """
    flags = {}  # flag name -> (path, definition node)
    defining_path = None
    reads = set()  # (path, attribute name) read in perf/ or sweep/
    for path, tree in trees.items():
        model_file = in_dir(path, "perf", "sweep")
        for node in ast.walk(tree):
            if isinstance(node, ast.ClassDef) and node.name == "MADConfig":
                defining_path = path
                for stmt in node.body:
                    if isinstance(stmt, ast.AnnAssign) and isinstance(
                        stmt.target, ast.Name
                    ):
                        flags[stmt.target.id] = (path, stmt)
            elif (
                model_file
                and isinstance(node, ast.Attribute)
                and isinstance(node.ctx, ast.Load)
            ):
                reads.add((path, node.attr))
    read = {attr for path, attr in reads if path != defining_path}
    for flag, (path, node) in sorted(flags.items()):
        if flag not in read:
            yield path, node, (
                f"MADConfig flag `{flag}` is never read in perf/ or sweep/ — "
                "a flag no cost formula consults makes the optimization "
                "ladder silently lie"
            )


# ----------------------------------------------------------------------
# Running the rules
# ----------------------------------------------------------------------
PER_FILE_RULES = {
    "ExactArithPurity": exact_arith_purity,
    "LedgerDiscipline": ledger_discipline,
    "SchemaIdLiteral": schema_id_literal,
    "SpanLabelStability": span_label_stability,
    "TelemetryDiscipline": telemetry_discipline,
    "TraceDiscipline": trace_discipline,
    "UnitsHygiene": units_hygiene,
}
RULES = sorted([*PER_FILE_RULES, "ConfigFlagCoverage"])


class Finding(NamedTuple):
    rule: str
    path: str
    line: int
    col: int
    message: str

    def __str__(self):
        return f"{self.path}:{self.line}:{self.col}: {self.rule}: {self.message}"


def findings(rule, trees):
    """``rule``'s findings over ``{path: tree}``, sorted by place."""
    if rule == "ConfigFlagCoverage":
        found = config_flag_coverage(trees)
    else:
        check = PER_FILE_RULES[rule]
        found = (
            (path, node, message)
            for path, tree in trees.items()
            for node, message in check(path, tree)
        )
    return sorted(
        (
            Finding(rule, path, node.lineno, node.col_offset + 1, message)
            for path, node, message in found
        ),
        key=lambda finding: (finding.path, finding.line, finding.col),
    )


# ----------------------------------------------------------------------
# The allowlist: findings src/repro keeps on purpose
# ----------------------------------------------------------------------
#: rule -> {(file under src/repro, flagged name): reason}.  An entry
#: allows that rule's findings in that file whose message quotes the
#: name.  ``kernels/fourstep.py`` is not here: it is out of
#: :func:`exact_arith_purity`'s scope by name (:data:`FLOAT_KERNEL_FILE`).
ALLOWED = {
    "LedgerDiscipline": {
        ("memsim/simulator.py", "`.capacity_bytes`"): (
            "the simulated memory's size, a constructor field set once "
            "and never accumulated, not a cost field"
        ),
        ("memsim/trace.py", "`.block_bytes`"): (
            "the trace's and the recorder's block size, constructor "
            "fields set once and never accumulated, not cost fields"
        ),
    },
}

ALLOWLIST = [
    (rule, file, name)
    for rule, entries in sorted(ALLOWED.items())
    for file, name in entries
]


def allowed_by(finding, file, name):
    return is_file(finding.path, f"/{file}") and name in finding.message


def allowed(finding):
    return any(
        allowed_by(finding, file, name) for file, name in ALLOWED.get(finding.rule, ())
    )


@pytest.fixture(scope="session")
def src_findings():
    """Every rule's findings over ``src/repro``, parsed once per session."""
    trees = {
        path.relative_to(ROOT).as_posix(): ast.parse(
            path.read_text(encoding="utf-8"), filename=str(path)
        )
        for path in sorted(SRC.rglob("*.py"))
    }
    assert len(trees) > 50, "the tree walk missed the package"
    return {rule: findings(rule, trees) for rule in RULES}


@pytest.mark.parametrize("rule", RULES)
def test_src_repro_satisfies(rule, src_findings):
    unexpected = [finding for finding in src_findings[rule] if not allowed(finding)]
    assert not unexpected, "\n".join(map(str, unexpected))


@pytest.mark.parametrize(
    "rule, file, name", ALLOWLIST, ids=[":".join(entry) for entry in ALLOWLIST]
)
def test_allowlist_entry_matches_a_live_finding(rule, file, name, src_findings):
    assert (SRC / file).is_file(), f"no file {file} under src/repro"
    assert any(
        allowed_by(finding, file, name) for finding in src_findings[rule]
    ), f"stale allowlist entry: no {rule} finding quotes {name} in {file}"


def test_every_allowlist_entry_names_a_rule_and_gives_a_reason():
    for rule, entries in ALLOWED.items():
        assert rule in RULES, f"allowlist names no rule {rule}"
        for (file, name), reason in entries.items():
            assert reason.strip(), f"{rule}:{file}:{name} gives no reason"


def test_allowlist_match_needs_the_rule_and_a_whole_file_path():
    finding = Finding(
        "LedgerDiscipline",
        "src/repro/memsim/trace.py",
        1,
        1,
        "mutates cost field `.block_bytes` outside the ledger core",
    )
    assert allowed(finding)
    assert not allowed(finding._replace(rule="UnitsHygiene"))
    assert not allowed(finding._replace(path="src/repro/sub_memsim/trace.py"))


def test_finding_prints_as_path_line_col_rule_message():
    (finding,) = findings(
        "LedgerDiscipline",
        {"src/repro/apps/workload.py": ast.parse("\nreport.ops = 1\n")},
    )
    assert str(finding) == (
        "src/repro/apps/workload.py:2:1: LedgerDiscipline: mutates cost field "
        "`.ops` outside the ledger core — cost primitives must return fresh "
        "CostReports, never mutate shared ones"
    )


def test_findings_sort_by_path_then_line_then_column():
    # ast.walk is breadth first: on line 2 it meets the right-hand sum
    # before the parenthesised difference to its left.
    trees = {
        "b/units.py": ast.parse(
            "x = a_bytes + b_ops\ny = (c_bytes - d_ops) * 2 + (e_ops + f_bytes)\n"
        ),
        "a/units.py": ast.parse("z = g_ops + h_bytes\n"),
    }
    assert [(f.path, f.line, f.col) for f in findings("UnitsHygiene", trees)] == [
        ("a/units.py", 1, 5),
        ("b/units.py", 1, 5),
        ("b/units.py", 2, 6),
        ("b/units.py", 2, 30),
    ]


@pytest.mark.parametrize(
    "name, entry",
    [(name, entry) for name, entries in SCOPES.items() for entry in entries],
    ids=[f"{name}-{entry}" for name, entries in SCOPES.items() for entry in entries],
)
def test_scope_entry_names_a_path_in_the_tree(name, entry):
    # A scope naming a place the tree no longer has turns its rule off
    # there without a sound: the rule matches nothing and stays clean.
    path = SRC / entry
    if entry.endswith(".py"):
        assert path.is_file(), f"{name}: no file {entry} under src/repro"
    else:
        assert path.is_dir(), f"{name}: no directory {entry} under src/repro"


# ----------------------------------------------------------------------
# Seeded violations: each rule catches a violation in real model code
# ----------------------------------------------------------------------
def _seeded(relpath, appended):
    """``relpath`` under src/repro with ``appended``, parsed, and its length."""
    source = (SRC / relpath).read_text(encoding="utf-8") + appended
    return {f"src/repro/{relpath}": ast.parse(source)}, len(source.splitlines())


@pytest.mark.parametrize(
    "rule, relpath, appended, last, says",
    [
        pytest.param(
            "LedgerDiscipline",
            "perf/primitives.py",
            "\n\ndef _leak(reports):\n"
            "    dram_bytes = 0\n"
            "    for report in reports:\n"
            "        dram_bytes += report.traffic.total\n"
            "    return dram_bytes\n",
            -1,
            "`dram_bytes` in perf/",
            id="raw-dram-bytes-accumulation-in-primitives",
        ),
        pytest.param(
            "SpanLabelStability",
            "perf/bootstrap.py",
            "\n\ndef _bad(model):\n"
            "    for i in range(3):\n"
            '        with obs.span(f"CoeffToSlot {i}"):\n'
            "            pass\n",
            -1,
            "f-string interpolation",
            id="fstring-span-label-in-bootstrap",
        ),
        pytest.param(
            "ExactArithPurity",
            "numth/ntt.py",
            "\n\ndef _approx_scale(n):\n    return 1 / n\n",
            0,
            "division",
            id="float-division-in-ntt",
        ),
        pytest.param(
            "SchemaIdLiteral",
            "obs/export.py",
            "\n\ndef build_bumped_report():\n"
            '    return {"schema": "repro.obs.run_report/v2"}\n',
            0,
            "'repro.obs.run_report/v2'",
            id="schema-version-literal-outside-its-declaration",
        ),
        pytest.param(
            "TelemetryDiscipline",
            "sweep/engine.py",
            "\n\ndef _worker_rss():\n"
            "    import resource\n\n"
            "    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss\n",
            0,
            "`resource.getrusage(...)`",
            id="rss-sampling-in-sweep-engine",
        ),
        pytest.param(
            "TraceDiscipline",
            "memsim/schedules.py",
            "\n\ndef _emit_raw(events, block):\n"
            "    from repro.memsim.trace import Access\n\n"
            '    events.append(Access("r", "ct", block))\n',
            0,
            "`Access(...)`",
            id="hand-built-trace-event-in-schedules",
        ),
        pytest.param(
            "UnitsHygiene",
            "hardware/runtime.py",
            "\n\ndef _work(cost):\n"
            "    return cost.ops.total + cost.traffic.total\n",
            0,
            "adds a byte-valued and an op-valued",
            id="ops-plus-bytes-in-runtime-model",
        ),
    ],
)
def test_seeded_violation_is_caught(rule, relpath, appended, last, says):
    trees, lines = _seeded(relpath, appended)
    (culprit,) = findings(rule, trees)
    assert culprit.path.endswith(relpath)
    # `last` is the seeded statement's line, counted back from the end.
    assert culprit.line == lines + last
    assert says in culprit.message


def test_seeded_dead_madconfig_flag_is_caught():
    trees = {
        path.relative_to(ROOT).as_posix(): ast.parse(path.read_text(encoding="utf-8"))
        for path in sorted((SRC / "perf").glob("*.py"))
    }
    optimizations = SRC / "perf" / "optimizations.py"
    patched = optimizations.read_text(encoding="utf-8").replace(
        "key_compression: bool = False",
        "key_compression: bool = False\n    phantom_flag: bool = False",
        1,
    )
    assert "phantom_flag" in patched
    trees[optimizations.relative_to(ROOT).as_posix()] = ast.parse(patched)
    (culprit,) = findings("ConfigFlagCoverage", trees)
    assert culprit.path.endswith("perf/optimizations.py")
    assert "phantom_flag" in culprit.message


@pytest.mark.parametrize(
    "relpath, appended, rule, excused",
    [
        pytest.param(
            "memsim/trace.py",
            "\n\ndef _resize(trace, size):\n    trace.block_bytes = size\n",
            "LedgerDiscipline",
            True,
            id="its-rule-file-and-name-on-any-line",
        ),
        pytest.param(
            "memsim/trace.py",
            "\n\ndef _grow(trace):\n    trace.block_bytes += 1\n",
            "TraceDiscipline",
            False,
            id="another-rule",
        ),
        pytest.param(
            "memsim/schedules.py",
            "\n\ndef _resize(trace, size):\n    trace.block_bytes = size\n",
            "LedgerDiscipline",
            False,
            id="another-file",
        ),
        pytest.param(
            "memsim/trace.py",
            "\n\ndef _reset(report):\n    report.ct_read = 0\n",
            "LedgerDiscipline",
            False,
            id="another-name",
        ),
        pytest.param(
            "kernels/ntt.py",
            "\n\ndef _ratio(a, b):\n    return a / b\n",
            "ExactArithPurity",
            False,
            id="another-kernel-file",
        ),
    ],
)
def test_allowlist_excuses_only_its_rule_file_and_name(
    relpath, appended, rule, excused
):
    # The entries are keyed by name, not line, so an excused finding may
    # move; anything else a seeded line adds still fails the tree test.
    trees, lines = _seeded(relpath, appended)
    (seeded,) = [f for f in findings(rule, trees) if f.line == lines]
    assert allowed(seeded) is excused
