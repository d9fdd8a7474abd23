"""The sweep engine: deterministic fan-out, memoized evaluation, merge.

``run_sweep`` evaluates every point of a :class:`~repro.sweep.spec
.SweepSpec` and returns the results in **canonical axis order** — the
order a serial nested ``for`` loop over the axes would produce —
regardless of how many workers evaluated them or in which order chunks
completed.  Three execution properties make parallel output bit-identical
to serial:

* every evaluator is a pure function of ``(point, context)``;
* chunks carry their canonical indices, and results are merged by index,
  never by completion order;
* memoization (:mod:`repro.sweep.memo`) only short-circuits repeated
  *pure* sub-evaluations, so cache layout cannot change values.

``jobs=1`` runs in-process (no executor, one shared memo) — the
debuggable reference path; ``jobs>1`` fans chunks out over a
:class:`~concurrent.futures.ProcessPoolExecutor` whose workers keep a
process-global memo across chunks.

**Telemetry is cross-process and holds the same determinism bar.**  When
the parent has tracing or metrics enabled, every chunk — serial or
pooled — evaluates under a chunk-local capture
(:func:`repro.obs.state.capture`): each point runs inside a
``sweep:point`` span (with a host-resource sample via
:func:`repro.obs.profiler.profiled_span`), and the chunk returns a
:func:`~repro.obs.telemetry.capture_snapshot` alongside its results.
After all chunks complete, the parent merges the snapshots **in
canonical chunk order** (never completion order), grafts the merged
span forest under the open ``sweep:run`` span and folds the metrics
into its registry.  Because memoized computes are telemetry-suppressed
(see :mod:`repro.sweep.memo`) and chunk boundaries vanish in the
concatenation, the merged trace is bit-identical between ``--jobs N``
and serial once scheduling-volatile fields are stripped
(:func:`repro.obs.telemetry.strip_volatile`).
"""

from __future__ import annotations

import os
import time
from dataclasses import dataclass, field
from typing import Any, Dict, List, Mapping, Optional, Sequence, Tuple

from repro.obs import schema
from repro.obs import state as obs
from repro.obs.profiler import (
    alloc_tracing,
    ensure_alloc_tracing,
    process_cpu_seconds,
    profiled_span,
    rss_peak_bytes,
)
from repro.obs.telemetry import (
    capture_snapshot,
    graft_snapshot,
    merge_into_registry,
    merge_snapshots,
)
from repro.sweep.memo import Memo
from repro.sweep.registry import get_evaluator
from repro.sweep.spec import SweepSpec

__all__ = ["ChunkPayload", "SweepError", "SweepOutcome", "run_sweep"]


class SweepError(RuntimeError):
    """A sweep failed: evaluator error or resume mismatch."""


#: One dispatched chunk: ``(canonical_index, point)`` pairs.
Chunk = List[Tuple[int, Mapping[str, Any]]]

#: Per-process memo reused across all chunks a pool worker executes.
_WORKER_MEMO = Memo()


@dataclass
class ChunkPayload:
    """Everything one evaluated chunk sends back to the parent.

    ``snapshot`` is the chunk-local telemetry
    (:data:`~repro.obs.telemetry.SNAPSHOT`) or ``None`` when the
    parent ran untraced; ``worker`` identifies the evaluating process
    and its resource use (pid, process-peak RSS, CPU seconds spent on
    this chunk).
    """

    results: List[Tuple[int, Any]]
    memo_hits: int
    memo_misses: int
    busy_seconds: float
    snapshot: Optional[Dict[str, Any]]
    worker: Dict[str, Any]


def _evaluate_chunk(
    evaluator_name: str,
    context: Mapping[str, Any],
    chunk: Chunk,
    memo: Memo,
    capture_telemetry: bool = False,
) -> ChunkPayload:
    """Evaluate one chunk against ``memo``; shared by both execution paths."""
    evaluator = get_evaluator(evaluator_name)
    hits0, misses0 = memo.stats()
    cpu0 = process_cpu_seconds()
    started = time.perf_counter()
    results: List[Tuple[int, Any]] = []
    snapshot: Optional[Dict[str, Any]] = None
    if capture_telemetry:
        with obs.capture() as (tracer, registry):
            for index, point in chunk:
                with profiled_span("sweep:point", index=index):
                    results.append((index, evaluator.fn(point, context, memo)))
        snapshot = capture_snapshot(tracer, registry)
    else:
        for index, point in chunk:
            results.append((index, evaluator.fn(point, context, memo)))
    busy = time.perf_counter() - started
    hits1, misses1 = memo.stats()
    return ChunkPayload(
        results=results,
        memo_hits=hits1 - hits0,
        memo_misses=misses1 - misses0,
        busy_seconds=busy,
        snapshot=snapshot,
        worker={
            "pid": os.getpid(),
            "peak_rss_bytes": rss_peak_bytes(),
            "cpu_seconds": process_cpu_seconds() - cpu0,
        },
    )


def _pool_chunk(
    evaluator_name: str,
    context: Mapping[str, Any],
    chunk: Chunk,
    capture_telemetry: bool,
) -> ChunkPayload:
    """Top-level (picklable) worker entry point using the process memo."""
    if capture_telemetry:
        ensure_alloc_tracing()
    return _evaluate_chunk(
        evaluator_name, context, chunk, _WORKER_MEMO, capture_telemetry
    )


@dataclass
class SweepOutcome:
    """Everything a sweep run produced, in canonical order.

    ``values[i]`` is the evaluator's (rich, picklable) result for
    canonical point ``i`` — except for points reused from a resumed
    report, whose values are the stored JSON rows (resume is a
    report-level contract; rich objects are not reconstructed).
    ``rows[i]`` is always the JSON-able report row.  ``workers``
    summarises each evaluating process (the parent itself at
    ``jobs=1``): pid, chunks executed, busy/CPU seconds, peak RSS.
    """

    spec: SweepSpec
    jobs: int
    values: List[Any]
    rows: List[Dict[str, Any]]
    reused: int = 0
    chunks: int = 0
    memo_hits: int = 0
    memo_misses: int = 0
    busy_seconds: float = 0.0
    wall_seconds: float = 0.0
    point_keys: List[Dict[str, Any]] = field(default_factory=list)
    workers: List[Dict[str, Any]] = field(default_factory=list)

    @property
    def evaluated(self) -> int:
        return self.spec.size - self.reused

    @property
    def memo_hit_rate(self) -> float:
        total = self.memo_hits + self.memo_misses
        return self.memo_hits / total if total else 0.0

    @property
    def worker_utilisation(self) -> float:
        """Fraction of worker-seconds spent evaluating (vs idle/dispatch)."""
        if self.wall_seconds <= 0:
            return 0.0
        return min(1.0, self.busy_seconds / (self.jobs * self.wall_seconds))


def _resume_rows(
    spec: SweepSpec, resume: Optional[Mapping[str, Any]]
) -> Dict[int, Dict[str, Any]]:
    """Rows reusable from a prior report, keyed by canonical index."""
    if resume is None:
        return {}
    from repro.sweep.report import SWEEP_REPORT

    schema.validate(resume, SWEEP_REPORT)
    if resume["fingerprint"] != spec.fingerprint():
        raise SweepError(
            f"resume fingerprint mismatch: report {resume['fingerprint'][:12]}… "
            f"was produced by a different spec than {spec.name!r} "
            f"({spec.fingerprint()[:12]}…)"
        )
    completed: Dict[int, Dict[str, Any]] = {}
    for entry in resume["points"]:
        index = entry["index"]
        if 0 <= index < spec.size:
            completed[index] = entry["row"]
    return completed


class _WorkerLedger:
    """Aggregates per-chunk worker identities into a per-pid summary."""

    def __init__(self) -> None:
        self._by_pid: Dict[int, Dict[str, Any]] = {}

    def record(self, worker: Mapping[str, Any], busy_seconds: float) -> None:
        pid = int(worker["pid"])
        entry = self._by_pid.setdefault(
            pid,
            {
                "pid": pid,
                "chunks": 0,
                "busy_seconds": 0.0,
                "cpu_seconds": 0.0,
                "peak_rss_bytes": 0,
            },
        )
        entry["chunks"] += 1
        entry["busy_seconds"] += busy_seconds
        entry["cpu_seconds"] += float(worker.get("cpu_seconds", 0.0))
        entry["peak_rss_bytes"] = max(
            entry["peak_rss_bytes"], int(worker.get("peak_rss_bytes", 0))
        )

    def summary(self) -> List[Dict[str, Any]]:
        return [self._by_pid[pid] for pid in sorted(self._by_pid)]


def run_sweep(
    spec: SweepSpec,
    jobs: int = 1,
    resume: Optional[Mapping[str, Any]] = None,
) -> SweepOutcome:
    """Evaluate every point of ``spec``; results in canonical order.

    Args:
        spec: the sweep to run.
        jobs: worker processes; ``1`` evaluates in-process (no pool).
        resume: a prior ``repro.sweep`` report dict whose completed
            points are reused (fingerprints must match); only pending
            points are evaluated.
    """
    if jobs < 1:
        raise ValueError(f"jobs must be >= 1, got {jobs}")
    evaluator = get_evaluator(spec.evaluator)
    points = dict(spec.points())
    completed = _resume_rows(spec, resume)
    pending = [index for index in range(spec.size) if index not in completed]
    chunks = spec.chunks(pending, jobs)

    outcome = SweepOutcome(
        spec=spec,
        jobs=jobs,
        values=[None] * spec.size,
        rows=[{} for _ in range(spec.size)],
        reused=len(completed),
        chunks=len(chunks),
    )
    for index, row in completed.items():
        outcome.values[index] = row
        outcome.rows[index] = dict(row)

    capture_telemetry = obs.tracing_enabled() or obs.metrics_enabled()
    ledger = _WorkerLedger()
    started = time.perf_counter()
    #: chunk position -> telemetry snapshot, merged in position order below.
    snapshots: Dict[int, Dict[str, Any]] = {}
    with obs.span(
        "sweep:run",
        sweep=spec.name,
        evaluator=spec.evaluator,
        points=spec.size,
        jobs=jobs,
    ):
        obs.count("sweep.points", spec.size)
        obs.count("sweep.points.reused", len(completed))
        obs.count("sweep.chunks.scheduled", len(chunks))
        if jobs == 1 or not pending:
            memo = Memo()
            with alloc_tracing() if capture_telemetry else _noop_context():
                for position, chunk_indices in enumerate(chunks):
                    chunk = [(i, points[i]) for i in chunk_indices]
                    payload = _evaluate_chunk(
                        spec.evaluator,
                        spec.context,
                        chunk,
                        memo,
                        capture_telemetry,
                    )
                    _merge(outcome, evaluator.row, points, payload)
                    if payload.snapshot is not None:
                        snapshots[position] = payload.snapshot
                    ledger.record(payload.worker, payload.busy_seconds)
        else:
            from concurrent.futures import FIRST_COMPLETED, ProcessPoolExecutor, wait

            workers = min(jobs, max(1, len(chunks)))
            with ProcessPoolExecutor(max_workers=workers) as pool:
                futures = {
                    pool.submit(
                        _pool_chunk,
                        spec.evaluator,
                        spec.context,
                        [(i, points[i]) for i in chunk_indices],
                        capture_telemetry,
                    ): (position, chunk_indices)
                    for position, chunk_indices in enumerate(chunks)
                }
                remaining = set(futures)
                while remaining:
                    done, remaining = wait(remaining, return_when=FIRST_COMPLETED)
                    for future in done:
                        position, indices = futures[future]
                        try:
                            payload = future.result()
                        except Exception as error:
                            for other in remaining:
                                other.cancel()
                            raise SweepError(
                                f"sweep {spec.name!r} chunk covering canonical "
                                f"indices {indices[0]}..{indices[-1]} failed: "
                                f"{error}"
                            ) from error
                        _merge(outcome, evaluator.row, points, payload)
                        if payload.snapshot is not None:
                            snapshots[position] = payload.snapshot
                        ledger.record(payload.worker, payload.busy_seconds)
        if snapshots:
            # Canonical chunk order — never completion order — so the
            # merged telemetry is scheduling-independent.
            merged = merge_snapshots(
                [snapshots[position] for position in sorted(snapshots)]
            )
            if obs.tracing_enabled():
                graft_snapshot(merged, obs.get_tracer())
            if obs.metrics_enabled():
                merge_into_registry(merged, obs.metrics())
    outcome.wall_seconds = time.perf_counter() - started
    outcome.point_keys = [spec.point_key(points[i]) for i in range(spec.size)]
    outcome.workers = ledger.summary()
    obs.count("sweep.memo.hits", outcome.memo_hits)
    obs.count("sweep.memo.misses", outcome.memo_misses)
    obs.gauge("sweep.jobs", float(jobs))
    obs.gauge("sweep.worker_utilisation", outcome.worker_utilisation)
    obs.gauge("sweep.memo_hit_rate", outcome.memo_hit_rate)
    return outcome


def _noop_context() -> Any:
    from contextlib import nullcontext

    return nullcontext()


def _merge(
    outcome: SweepOutcome,
    row_fn: Any,
    points: Mapping[int, Mapping[str, Any]],
    payload: ChunkPayload,
) -> None:
    """Fold one chunk's results into the canonical slots."""
    for index, value in payload.results:
        outcome.values[index] = value
        outcome.rows[index] = row_fn(value, points[index])
    outcome.memo_hits += payload.memo_hits
    outcome.memo_misses += payload.memo_misses
    outcome.busy_seconds += payload.busy_seconds
    obs.count("sweep.chunks.completed")
