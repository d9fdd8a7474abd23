"""The project map: every path-scoping constant the lint rules share.

Until PR 8 each rule module carried its own copy of "where is this
allowed" knowledge (``ALLOWED_FILES`` in the ledger rule,
``PROFILER_HOME`` in the telemetry rule, ...).  The whole-program layer
needs the same map — the taint engine's allowlisted volatile channels
*are* the telemetry rule's confinement targets — so the constants live
here, next to the symbol table, and both the per-file rules and the
program passes import them.  One edit updates every analysis.

Path tails are matched with :meth:`repro.lint.core.FileContext.is_file`
(POSIX suffix match) and directory names with
:meth:`~repro.lint.core.FileContext.in_dir`, so the constants work for
the shipped ``src/repro`` tree and for test fixtures copied under a
tmp dir alike.
"""

from __future__ import annotations

__all__ = [
    "ACCOUNTING_CORE_FILES",
    "ALLOWED_PAYLOAD_KEYS",
    "EXACT_DIRS",
    "KERNEL_DIRS",
    "MEMSIM_ACCOUNTING_HOME",
    "MEMSIM_TRACE_HOME",
    "NUMPY_EXACT_DIRS",
    "PROFILER_HOME",
    "SEEDED_STREAM_FILES",
    "SERVE_HOME",
    "VOLATILE_CHANNEL_FILES",
]

# ----------------------------------------------------------------------
# Accounting / arithmetic confinement (per-file rules)
# ----------------------------------------------------------------------

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

#: The serving simulator package: virtual-clock only.  No module under
#: this directory may import ``time`` or ``datetime``
#: (:class:`~repro.lint.rules.simclock.SimClockDiscipline`) — simulated
#: timestamps come off the event heap, so a wall-clock read is either
#: dead code or a determinism leak.
SERVE_HOME = "serve"

# ----------------------------------------------------------------------
# Determinism taint: the allowlisted volatile channels
# ----------------------------------------------------------------------

#: Modules whose *job* is handling wall-clock / host-volatile values.
#:
#: Functions defined in these files return clean values to the taint
#: engine and their internal sinks are not reported: they are the
#: documented volatile channels every determinism comparison already
#: strips (``strip_volatile``) or ignores (``provenance``, span
#: ``start``/``end`` micros, resource samples).
#:
#: * ``obs/profiler.py`` — host resource sampling lives here by
#:   construction (TelemetryDiscipline); everything it returns lands in
#:   ``resources`` blocks, which ``strip_volatile`` removes.
#: * ``obs/events.py`` — the event envelope carries wall-clock ``ts``
#:   and the provenance block carries git SHA / argv by design; event
#:   streams are never inputs to fingerprints or baselines.
#: * ``obs/tracer.py`` — span ``start``/``end`` are ``perf_counter``
#:   readings by design; ``strip_volatile`` zeroes the derived
#:   ``start_us``/``duration_us`` before any bit-identity comparison.
#: * ``obs/telemetry.py`` — rebases and strips those same clocks; it is
#:   the sanitizer's own home.
VOLATILE_CHANNEL_FILES = (
    "obs/profiler.py",
    "obs/events.py",
    "obs/tracer.py",
    "obs/telemetry.py",
)

#: Modules whose *job* is deriving deterministic streams from seeds.
#:
#: Like :data:`VOLATILE_CHANNEL_FILES`, functions defined here return
#: clean values to the taint engine — but for the opposite reason: the
#: RNG use inside them is *not* volatile.  Every stream is drawn from a
#: ``random.Random`` instance constructed from an explicit string seed
#: (SHA-512 seeded, immune to ``PYTHONHASHSEED``), so identical seeds
#: give identical streams on every platform and process.  Ambient RNG
#: (``random.random()`` on the module-global instance) anywhere else
#: remains a finding.
#:
#: * ``serve/arrivals.py`` — the serving simulator's only entropy
#:   source: seeded Poisson/bursty/diurnal arrival processes.
#: * ``kernels/check.py`` — the differential-check harness behind
#:   ``repro kernels``: residue inputs come off a string-seeded stream
#:   so the parity verdict is a pure function of the seed; its
#:   ``runtime`` block is host wall-clock by contract, mirroring the
#:   timing fields every other report family carries.
SEEDED_STREAM_FILES = ("serve/arrivals.py", "kernels/check.py")

#: Report-payload keys that hold scheduling- or host-dependent values by
#: contract.  A tainted value is legal under these keys because every
#: determinism comparison already excludes them: ``strip_volatile``
#: drops/zeroes them from run reports, and the CI sweep-parity gate
#: strips the same set from ``sweep_report.json`` before asserting
#: bit-identity.  Flowing nondeterminism under any *other* key is a
#: finding.
ALLOWED_PAYLOAD_KEYS = frozenset(
    {
        "busy_seconds",
        "chunks",
        "jobs",
        "memo",
        "provenance",
        "reused",
        "resources",
        "runtime",
        "wall_seconds",
        "worker_utilisation",
        "workers",
    }
)
