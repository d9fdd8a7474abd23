"""Structured event log (``repro.obs.events/v1``) and run provenance.

Two pieces every long-running surface shares:

* :func:`provenance` — the identity block stamped into every report the
  repo emits (run reports, sweep reports, memsim reports, bench
  trajectories): git commit, interpreter and numpy versions, platform,
  argv and an optional config fingerprint.  A regression found in CI is
  attributable to the commit that produced it, not just to "a run".
* :class:`EventLog` — a schema-versioned JSONL stream of run events.
  One process writes (the sweep *parent*; workers report in-band through
  chunk results), many may read: ``repro top`` tails the file to render
  in-flight progress and ``repro dash`` turns a finished stream into a
  standalone HTML dashboard.  Every line is self-describing (schema id,
  monotone sequence number, wall timestamp, type, payload) and flushed
  on write so live readers never see a torn line.

A stream is one :data:`EVENTS` document: the list of its events,
validated by :func:`repro.obs.schema.validate` like every other report.
"""

from __future__ import annotations

import json
import platform
import subprocess
import sys
import time
from pathlib import Path
from typing import Any, Callable, Dict, IO, List, Optional, Sequence

from repro.obs import schema
from repro.obs.schema import COUNT, NON_NEGATIVE, PROVENANCE, Schema

__all__ = [
    "EVENTS",
    "EventLog",
    "provenance",
    "read_events",
]

#: Event types the sweep engine emits; the log accepts any type string.
RUN_START = "run_start"
SWEEP_START = "sweep_start"
CHUNK_COMPLETE = "chunk_complete"
SWEEP_END = "sweep_end"
RUN_END = "run_end"

_git_cache: Optional[Dict[str, Any]] = None


def _git_describe() -> Dict[str, Any]:
    """``{git_sha, git_dirty}`` of the working tree, cached per process.

    Falls back to ``{"git_sha": "unknown", "git_dirty": None}`` outside a
    git checkout or when git is unavailable — provenance must never make
    a run fail.
    """
    global _git_cache
    if _git_cache is not None:
        return dict(_git_cache)
    sha = "unknown"
    dirty: Optional[bool] = None
    root = Path(__file__).resolve().parents[3]
    cwd = root if (root / ".git").exists() else Path.cwd()
    try:
        sha = subprocess.run(
            ["git", "rev-parse", "HEAD"],
            cwd=cwd,
            capture_output=True,
            text=True,
            timeout=5,
            check=True,
        ).stdout.strip()
        status = subprocess.run(
            ["git", "status", "--porcelain"],
            cwd=cwd,
            capture_output=True,
            text=True,
            timeout=5,
            check=True,
        ).stdout
        dirty = bool(status.strip())
    except (OSError, subprocess.SubprocessError):
        pass
    _git_cache = {"git_sha": sha, "git_dirty": dirty}
    return dict(_git_cache)


def _numpy_version() -> Optional[str]:
    try:
        import numpy
    except ImportError:  # pragma: no cover - numpy is a hard dep in CI
        return None
    return str(numpy.__version__)


def provenance(
    argv: Optional[Sequence[str]] = None,
    config_fingerprint: Optional[str] = None,
) -> Dict[str, Any]:
    """The identity block stamped into every emitted report.

    Args:
        argv: command line recorded with the run (defaults to
            ``sys.argv``).
        config_fingerprint: optional stable hash of the run's
            configuration (e.g. a sweep spec fingerprint) so two runs of
            the same commit are still distinguishable by what they ran.
    """
    block = _git_describe()
    block.update(
        {
            "python": platform.python_version(),
            "numpy": _numpy_version(),
            "platform": platform.platform(),
            "argv": list(sys.argv if argv is None else argv),
            "config_fingerprint": config_fingerprint,
        }
    )
    return block


def _check_stream(events: List[Dict[str, Any]], fail: schema.Fail) -> None:
    """Sequence numbers count lines; the ``run_start`` header comes first."""
    for position, event in enumerate(events):
        if event["seq"] != position:
            fail(f"[{position}].seq", f"{event['seq']!r} is not the line position")
    if events and events[0]["type"] != RUN_START:
        fail("[0].type", f"{events[0]['type']!r} is not {RUN_START!r}")
    if events and "provenance" not in events[0]["data"]:
        fail("[0].data", "missing required key 'provenance'")


EVENTS = Schema(
    "repro.obs.events/v1",
    {
        "title": "repro.obs event stream",
        "type": "array",
        "items": {
            "type": "object",
            "required": ["seq", "ts", "type", "data"],
            "properties": {
                "seq": COUNT,
                "ts": NON_NEGATIVE,
                "type": {"type": "string", "pattern": "."},
                "data": {
                    "type": "object",
                    "properties": {"provenance": PROVENANCE},
                },
            },
        },
    },
    check=_check_stream,
)


class EventLog:
    """Append-only JSONL event stream, one writer, flushed per line.

    The first emitted event should be ``run_start`` carrying the
    provenance block (:meth:`start` does this); readers treat that line
    as the stream header.  ``seq`` increases by one per line so a reader
    can detect truncation, and ``ts`` is wall time (``time.time``) so
    cross-process readers can compute rates.
    """

    def __init__(
        self,
        path: str,
        clock: Callable[[], float] = time.time,
    ) -> None:
        self.path = path
        self._clock = clock
        self._seq = 0
        self._handle: Optional[IO[str]] = open(path, "w", encoding="utf-8")

    # ------------------------------------------------------------------
    def emit(self, type: str, data: Optional[Dict[str, Any]] = None) -> Dict[str, Any]:
        """Append one event line; returns the emitted event dict."""
        if self._handle is None:
            raise ValueError(f"event log {self.path!r} is closed")
        if not type:
            raise ValueError("event type must be non-empty")
        event = {
            "schema": EVENTS.id,
            "seq": self._seq,
            "ts": self._clock(),
            "type": type,
            "data": dict(data) if data else {},
        }
        self._handle.write(json.dumps(event, sort_keys=True) + "\n")
        self._handle.flush()
        self._seq += 1
        return event

    def start(
        self,
        command: str,
        provenance_block: Optional[Dict[str, Any]] = None,
    ) -> Dict[str, Any]:
        """Emit the ``run_start`` header (provenance + command)."""
        return self.emit(
            RUN_START,
            {
                "command": command,
                "provenance": (
                    provenance() if provenance_block is None else provenance_block
                ),
            },
        )

    def close(self) -> None:
        if self._handle is not None:
            self._handle.close()
            self._handle = None

    def __enter__(self) -> "EventLog":
        return self

    def __exit__(self, exc_type: Any, exc: Any, tb: Any) -> None:
        self.close()


# ----------------------------------------------------------------------
# Reading and validation
# ----------------------------------------------------------------------
def read_events(path: str, strict: bool = True) -> List[Dict[str, Any]]:
    """Parse an events JSONL file.

    ``strict=True`` validates the whole stream; ``strict=False`` (the
    live-tailing mode of ``repro top``) drops a torn trailing line and
    validates what parsed.
    """
    events: List[Dict[str, Any]] = []
    with open(path, encoding="utf-8") as handle:
        for number, line in enumerate(handle, start=1):
            line = line.strip()
            if not line:
                continue
            try:
                events.append(json.loads(line))
            except ValueError:
                if strict:
                    raise ValueError(
                        f"{path}:{number}: event line is not valid JSON"
                    ) from None
                break  # torn tail of a live file
    schema.validate(events, EVENTS)
    return events
