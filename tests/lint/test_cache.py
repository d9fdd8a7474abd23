"""Whole-result lint cache: content-hash keys, replay, invalidation."""

import textwrap
from pathlib import Path

from repro.lint import LintCache, all_rules, run_lint
from repro.lint.cache import LINT_CACHE


def _write(tmp_path, relpath, code):
    target = tmp_path / relpath
    target.parent.mkdir(parents=True, exist_ok=True)
    target.write_text(textwrap.dedent(code))
    return target


class TestRunKey:
    def test_key_changes_with_content(self):
        cache = LintCache(root=Path("."))
        base = cache.run_key(["A"], [("f.py", "x = 1\n")])
        assert cache.run_key(["A"], [("f.py", "x = 2\n")]) != base
        assert cache.run_key(["A"], [("f.py", "x = 1\n")]) == base

    def test_key_changes_with_rule_selection(self):
        cache = LintCache(root=Path("."))
        files = [("f.py", "x = 1\n")]
        assert cache.run_key(["A"], files) != cache.run_key(["A", "B"], files)

    def test_key_independent_of_file_order(self):
        cache = LintCache(root=Path("."))
        files = [("a.py", "x = 1\n"), ("b.py", "y = 2\n")]
        assert cache.run_key(["A"], files) == cache.run_key(
            ["A"], list(reversed(files))
        )


class TestReplay:
    def test_second_identical_run_replays_from_cache(self, tmp_path):
        _write(tmp_path / "tree", "mod.py", "x = 1\n")
        cache = LintCache(tmp_path / ".lint_cache")
        first = run_lint([tmp_path / "tree"], all_rules(), cache=cache)
        assert not first.from_cache
        second = run_lint([tmp_path / "tree"], all_rules(), cache=cache)
        assert second.from_cache
        assert second.files == first.files
        assert second.rules == first.rules
        assert [f.to_dict() for f in second.findings] == [
            f.to_dict() for f in first.findings
        ]

    def test_cached_findings_round_trip(self, tmp_path):
        _write(
            tmp_path / "tree",
            "perf/primitives.py",
            """
            def cost(limbs):
                dram_bytes = 0
                dram_bytes += 8 * limbs
                return dram_bytes
            """,
        )
        cache = LintCache(tmp_path / ".lint_cache")
        first = run_lint([tmp_path / "tree"], all_rules(), cache=cache)
        assert first.findings
        second = run_lint([tmp_path / "tree"], all_rules(), cache=cache)
        assert second.from_cache
        assert [f.render() for f in second.findings] == [
            f.render() for f in first.findings
        ]

    def test_content_change_invalidates(self, tmp_path):
        target = _write(tmp_path / "tree", "mod.py", "x = 1\n")
        cache = LintCache(tmp_path / ".lint_cache")
        run_lint([tmp_path / "tree"], all_rules(), cache=cache)
        target.write_text("x = 2\n")
        again = run_lint([tmp_path / "tree"], all_rules(), cache=cache)
        assert not again.from_cache

    def test_corrupt_entry_is_a_miss(self, tmp_path):
        _write(tmp_path / "tree", "mod.py", "x = 1\n")
        cache = LintCache(tmp_path / ".lint_cache")
        run_lint([tmp_path / "tree"], all_rules(), cache=cache)
        for entry in (tmp_path / ".lint_cache").glob("*.json"):
            entry.write_text("{not json")
        again = run_lint([tmp_path / "tree"], all_rules(), cache=cache)
        assert not again.from_cache

    def test_format_bump_is_a_miss(self, tmp_path):
        _write(tmp_path / "tree", "mod.py", "x = 1\n")
        cache = LintCache(tmp_path / ".lint_cache")
        run_lint([tmp_path / "tree"], all_rules(), cache=cache)
        for entry in (tmp_path / ".lint_cache").glob("*.json"):
            entry.write_text(
                entry.read_text().replace(LINT_CACHE.id, "repro.lint.cache/v0")
            )
        again = run_lint([tmp_path / "tree"], all_rules(), cache=cache)
        assert not again.from_cache
