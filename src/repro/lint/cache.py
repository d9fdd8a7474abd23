"""Whole-result lint cache keyed by file content hashes.

``repro lint --changed-only`` short-circuits the entire run when
nothing relevant changed.  The cache is deliberately *whole-result*,
not per-file: a cross-file rule (``ConfigFlagCoverage``) makes a
file's findings depend on every other file, so the only sound key is
the full set of ``(path, content-hash)`` pairs plus the rule selection
and engine version.  A hit therefore means "identical inputs" and the previous
:class:`~repro.lint.core.LintResult` is replayed verbatim (flagged
with ``from_cache=True``).

Entries live under ``.lint_cache/`` as one JSON file per key; stale
entries are pruned down to the most recent few so the directory never
grows without bound.
"""

from __future__ import annotations

import hashlib
from pathlib import Path
from typing import List, Optional, Sequence, Tuple

from repro.lint.core import Finding, LintResult
from repro.lint.reporters import FINDING
from repro.obs import schema
from repro.obs.schema import COUNT, Schema

__all__ = ["DEFAULT_CACHE_DIR", "LINT_CACHE", "LintCache"]

#: One cache entry.  Bump the id to invalidate every existing entry
#: (engine behaviour change).
LINT_CACHE = Schema(
    "repro.lint.cache/v1",
    {
        "title": "repro lint cache entry",
        "type": "object",
        "required": ["findings", "files", "rules", "suppressed"],
        "properties": {
            "findings": {"type": "array", "items": FINDING},
            "files": {"type": "array", "items": {"type": "string"}},
            "rules": {"type": "array", "items": {"type": "string"}},
            "suppressed": COUNT,
        },
    },
    key=("format",),
)

DEFAULT_CACHE_DIR = ".lint_cache"

#: Most-recent entries kept on disk; older ones are pruned on store.
_MAX_ENTRIES = 8


class LintCache:
    """On-disk replay cache for whole lint runs."""

    def __init__(self, root: Path) -> None:
        self.root = Path(root)

    # ------------------------------------------------------------------
    def run_key(
        self,
        rule_names: Sequence[str],
        files: Sequence[Tuple[str, str]],
    ) -> str:
        """Deterministic key over rule selection + every file's content."""
        digest = hashlib.sha256()
        digest.update(LINT_CACHE.id.encode("utf-8"))
        for name in sorted(rule_names):
            digest.update(b"\x00rule\x00" + name.encode("utf-8"))
        for display, source in sorted(files):
            content = hashlib.sha256(source.encode("utf-8")).hexdigest()
            digest.update(b"\x00file\x00" + display.encode("utf-8"))
            digest.update(b"\x00hash\x00" + content.encode("utf-8"))
        return digest.hexdigest()

    def _entry_path(self, key: str) -> Path:
        return self.root / f"{key}.json"

    # ------------------------------------------------------------------
    def load(self, key: str) -> Optional[LintResult]:
        """Replay the cached result for ``key``, or None on miss."""
        try:
            payload = schema.load(self._entry_path(key), LINT_CACHE)
        except (OSError, ValueError):
            return None
        if payload is None:
            return None
        return LintResult(
            findings=[Finding(**item) for item in payload["findings"]],
            files=payload["files"],
            rules=payload["rules"],
            suppressed=payload["suppressed"],
            from_cache=True,
        )

    def store(self, key: str, result: LintResult) -> None:
        """Persist ``result`` under ``key``; best-effort (never raises)."""
        payload = {
            "format": LINT_CACHE.id,
            "findings": [finding.to_dict() for finding in result.findings],
            "files": list(result.files),
            "rules": list(result.rules),
            "suppressed": result.suppressed,
        }
        try:
            self.root.mkdir(parents=True, exist_ok=True)
            entry = self._entry_path(key)
            tmp = entry.with_suffix(".tmp")
            schema.write(payload, LINT_CACHE, tmp)
            tmp.replace(entry)
            self._prune(keep=entry)
        except OSError:
            return

    def _prune(self, keep: Path) -> None:
        entries: List[Path] = [
            path
            for path in self.root.glob("*.json")
            if path != keep
        ]
        entries.sort(key=lambda path: (path.stat().st_mtime, path.name))
        for stale in entries[: max(0, len(entries) - (_MAX_ENTRIES - 1))]:
            try:
                stale.unlink()
            except OSError:
                continue
