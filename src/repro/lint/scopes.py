"""The project map: every path-scoping constant the lint rules share.

Each per-file rule needs some "where is this allowed" knowledge (the
ledger rule's accounting core, the telemetry rule's profiler home, the
exact-arithmetic directories, ...).  The constants live here, in one
module, so one edit updates every rule that reads them.

Path tails are matched with :meth:`repro.lint.core.FileContext.is_file`
(POSIX suffix match) and directory names with
:meth:`~repro.lint.core.FileContext.in_dir`, so the constants work for
the shipped ``src/repro`` tree and for test fixtures copied under a
tmp dir alike.
"""

from __future__ import annotations

__all__ = [
    "ACCOUNTING_CORE_FILES",
    "EXACT_DIRS",
    "FLOAT_KERNEL_FILE",
    "KERNEL_DIRS",
    "MEMSIM_ACCOUNTING_HOME",
    "MEMSIM_TRACE_HOME",
    "NUMPY_EXACT_DIRS",
    "PROFILER_HOME",
]

#: The accounting core where cost-field arithmetic is definitionally OK
#: (:class:`~repro.lint.rules.ledger.LedgerDiscipline`).
ACCOUNTING_CORE_FILES = (
    "perf/events.py",
    "perf/ledger.py",
    "perf/cache.py",
    "memsim/accounting.py",
)

#: Exact integer paths that must stay float-free
#: (:class:`~repro.lint.rules.exact.ExactArithPurity`).
EXACT_DIRS = ("numth", "ring")

#: The vectorized arithmetic kernels: exact like :data:`EXACT_DIRS` —
#: every value is an int64/uint64 residue and the differential tests
#: assert bit-identity against the pure-Python oracle — but numpy is the
#: whole point, so only the numpy-import check is waived there
#: (:class:`~repro.lint.rules.exact.ExactArithPurity`).
KERNEL_DIRS = ("kernels",)

#: The one kernel module allowed float arithmetic: the four-step NTT,
#: whose float64 values are integers below ``2**53`` by the proof in its
#: docstring (:class:`~repro.lint.rules.exact.ExactArithPurity`).
FLOAT_KERNEL_FILE = "kernels/fourstep.py"

#: Exact paths where the numpy-import check is waived: the kernels, and
#: ``ring/``, whose residue matrices are int64 (moduli below ``2**30``)
#: or Python-int ``object`` arrays.  Floats, ``/`` and non-exact
#: ``math.*`` stay banned in both
#: (:class:`~repro.lint.rules.exact.ExactArithPurity`).
NUMPY_EXACT_DIRS = KERNEL_DIRS + ("ring",)

#: The sole sanctioned module for host resource sampling
#: (:class:`~repro.lint.rules.telemetry.TelemetryDiscipline`).
PROFILER_HOME = "obs/profiler.py"

#: Where direct memsim trace-event construction is definitionally OK
#: (:class:`~repro.lint.rules.tracing.TraceDiscipline`).
MEMSIM_TRACE_HOME = "memsim/trace.py"

#: The sole sanctioned accumulation site for simulated byte counters
#: (:class:`~repro.lint.rules.tracing.TraceDiscipline`).
MEMSIM_ACCOUNTING_HOME = "memsim/accounting.py"
