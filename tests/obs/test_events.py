"""EventLog round-trips, stream validation and provenance stamping.

Field-level rejections of malformed streams and provenance blocks live
in the schema conformance corpus (``tests/obs/test_schema.py``).
"""

import json

import pytest

from repro.obs import schema
from repro.obs.events import (
    CHUNK_COMPLETE,
    EVENTS,
    RUN_END,
    RUN_START,
    SWEEP_END,
    SWEEP_START,
    EventLog,
    provenance,
    read_events,
)


class TestProvenance:
    def test_block_shape(self, tmp_path):
        block = provenance(argv=["sweep", "table5"], config_fingerprint="ab" * 32)
        path = str(tmp_path / "events.jsonl")
        with EventLog(path) as log:
            log.start("x", provenance_block=block)
        assert read_events(path)[0]["data"]["provenance"] == block
        assert block["argv"] == ["sweep", "table5"]
        assert block["config_fingerprint"] == "ab" * 32
        assert isinstance(block["git_sha"], str) and block["git_sha"]
        assert isinstance(block["python"], str)
        assert isinstance(block["platform"], str)

    def test_defaults_to_process_argv(self):
        block = provenance()
        assert isinstance(block["argv"], list)


class TestEventLog:
    def test_roundtrip(self, tmp_path):
        path = str(tmp_path / "events.jsonl")
        with EventLog(path) as log:
            log.start("sweep table5", provenance_block=provenance())
            log.emit(SWEEP_START, {"points": 4})
            log.emit(CHUNK_COMPLETE, {"chunk": 0, "points_done": 2})
            log.emit(SWEEP_END, {"points": 4})
            log.emit(RUN_END, {"exit_code": 0})
        events = read_events(path)
        assert [e["type"] for e in events] == [
            RUN_START,
            SWEEP_START,
            CHUNK_COMPLETE,
            SWEEP_END,
            RUN_END,
        ]
        assert [e["seq"] for e in events] == list(range(5))
        assert all(e["schema"] == EVENTS.id for e in events)
        assert events[0]["data"]["command"] == "sweep table5"

    def test_emit_after_close_raises(self, tmp_path):
        log = EventLog(str(tmp_path / "e.jsonl"))
        log.start("x")
        log.close()
        with pytest.raises(ValueError):
            log.emit(SWEEP_START, {})

    def test_lines_are_flushed_as_written(self, tmp_path):
        path = str(tmp_path / "e.jsonl")
        log = EventLog(path)
        log.start("x")
        log.emit(SWEEP_START, {"points": 1})
        # Without closing: both lines must already be on disk (live tail).
        with open(path) as handle:
            lines = handle.read().splitlines()
        assert len(lines) == 2
        log.close()

    def test_monotonic_timestamps_and_seq(self, tmp_path):
        path = str(tmp_path / "e.jsonl")
        with EventLog(path) as log:
            log.start("x")
            for index in range(5):
                log.emit(CHUNK_COMPLETE, {"chunk": index})
        events = read_events(path)
        timestamps = [e["ts"] for e in events]
        assert timestamps == sorted(timestamps)


class TestReadEvents:
    def _write(self, tmp_path, lines):
        path = str(tmp_path / "e.jsonl")
        with open(path, "w") as handle:
            handle.write("\n".join(lines) + "\n")
        return path

    def _valid_lines(self, tmp_path):
        path = str(tmp_path / "valid.jsonl")
        with EventLog(path) as log:
            log.start("x")
            log.emit(SWEEP_START, {"points": 1})
        with open(path) as handle:
            return handle.read().splitlines()

    def test_strict_rejects_torn_tail(self, tmp_path):
        lines = self._valid_lines(tmp_path)
        path = self._write(tmp_path, lines + ['{"schema": "repro.obs.ev'])
        with pytest.raises(ValueError):
            read_events(path)

    def test_non_strict_drops_torn_tail(self, tmp_path):
        lines = self._valid_lines(tmp_path)
        path = self._write(tmp_path, lines + ['{"schema": "repro.obs.ev'])
        events = read_events(path, strict=False)
        assert [e["type"] for e in events] == [RUN_START, SWEEP_START]

    def test_first_event_must_be_run_start(self, tmp_path):
        lines = self._valid_lines(tmp_path)
        path = self._write(tmp_path, lines[1:])
        with pytest.raises(ValueError):
            read_events(path)

    def test_seq_gap_rejected(self, tmp_path):
        lines = self._valid_lines(tmp_path)
        doctored = json.loads(lines[1])
        doctored["seq"] = 7
        path = self._write(tmp_path, [lines[0], json.dumps(doctored)])
        with pytest.raises(ValueError):
            read_events(path)

    def test_wrong_schema_rejected(self, tmp_path):
        lines = self._valid_lines(tmp_path)
        doctored = json.loads(lines[0])
        doctored["schema"] = "repro.obs.events/v999"
        path = self._write(tmp_path, [json.dumps(doctored)] + lines[1:])
        with pytest.raises(ValueError):
            read_events(path)

    def test_validate_events_accepts_roundtrip(self, tmp_path):
        lines = self._valid_lines(tmp_path)
        schema.validate([json.loads(line) for line in lines], EVENTS)
