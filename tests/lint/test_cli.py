"""``python -m repro lint`` CLI: exit codes, JSON output, rule selection."""

import json
import textwrap
from pathlib import Path

import repro
from repro.cli import main
from repro.lint import LINT_REPORT, rule_names
from repro.obs import schema

SRC = Path(repro.__file__).resolve().parent


def _seed_violation(tmp_path):
    target = tmp_path / "perf" / "primitives.py"
    target.parent.mkdir(parents=True)
    target.write_text(
        textwrap.dedent(
            """
            def cost(limbs):
                dram_bytes = 0
                dram_bytes += 8 * limbs
                return dram_bytes
            """
        )
    )
    return target


class TestLintCommand:
    def test_clean_tree_exits_zero(self, capsys):
        assert main(["lint", str(SRC)]) == 0
        assert "clean:" in capsys.readouterr().out

    def test_violation_exits_one_and_names_rule_file_line(
        self, tmp_path, capsys
    ):
        _seed_violation(tmp_path)
        assert main(["lint", str(tmp_path)]) == 1
        out = capsys.readouterr().out
        assert "LedgerDiscipline" in out
        assert "perf/primitives.py:4:5" in out

    def test_json_report_validates(self, tmp_path, capsys):
        _seed_violation(tmp_path)
        assert main(["lint", "--json", str(tmp_path)]) == 1
        payload = json.loads(capsys.readouterr().out)
        schema.validate(payload, LINT_REPORT)
        assert payload["counts"] == {"LedgerDiscipline": 1}

    def test_rule_selection(self, tmp_path, capsys):
        _seed_violation(tmp_path)
        # Only the units rule runs, so the ledger violation is invisible.
        assert main(["lint", "--rule", "UnitsHygiene", str(tmp_path)]) == 0
        payload_rules = capsys.readouterr().out
        assert "clean" in payload_rules

    def test_unknown_rule_is_usage_error(self, tmp_path, capsys):
        assert main(["lint", "--rule", "NoSuchRule", str(tmp_path)]) == 2
        assert "unknown rule" in capsys.readouterr().err

    def test_missing_path_is_usage_error(self, capsys):
        assert main(["lint", "/nonexistent/definitely-not-here"]) == 2
        assert "no such file" in capsys.readouterr().err

    def test_list_rules_prints_registry(self, capsys):
        assert main(["lint", "--list-rules"]) == 0
        out = capsys.readouterr().out
        for name in rule_names():
            assert name in out

    def test_syntax_error_reported_as_finding(self, tmp_path, capsys):
        bad = tmp_path / "broken.py"
        bad.write_text("def broken(:\n")
        assert main(["lint", str(tmp_path)]) == 1
        assert "SyntaxError" in capsys.readouterr().out


class TestChangedOnly:
    def test_second_run_is_replayed_from_cache(
        self, tmp_path, capsys, monkeypatch
    ):
        monkeypatch.chdir(tmp_path)
        tree = tmp_path / "tree"
        tree.mkdir()
        (tree / "mod.py").write_text("x = 1\n")
        assert main(["lint", "--changed-only", "tree"]) == 0
        first = capsys.readouterr().out
        assert "[cached]" not in first
        assert main(["lint", "--changed-only", "tree"]) == 0
        second = capsys.readouterr().out
        assert "[cached]" in second
        assert (tmp_path / ".lint_cache").is_dir()

    def test_edit_invalidates_cache(self, tmp_path, capsys, monkeypatch):
        monkeypatch.chdir(tmp_path)
        tree = tmp_path / "tree"
        tree.mkdir()
        target = tree / "mod.py"
        target.write_text("x = 1\n")
        assert main(["lint", "--changed-only", "tree"]) == 0
        capsys.readouterr()
        target.write_text("x = 2\n")
        assert main(["lint", "--changed-only", "tree"]) == 0
        assert "[cached]" not in capsys.readouterr().out


class TestFormats:
    def test_sarif_to_stdout(self, tmp_path, capsys):
        _seed_violation(tmp_path)
        assert main(["lint", "--format", "sarif", str(tmp_path)]) == 1
        log = json.loads(capsys.readouterr().out)
        assert log["version"] == "2.1.0"
        assert log["runs"][0]["results"][0]["ruleId"] == "LedgerDiscipline"

    def test_out_writes_file_and_prints_text_summary(
        self, tmp_path, capsys
    ):
        _seed_violation(tmp_path)
        out_file = tmp_path / "lint.sarif"
        code = main(
            [
                "lint",
                "--format",
                "sarif",
                "--out",
                str(out_file),
                str(tmp_path),
            ]
        )
        assert code == 1
        log = json.loads(out_file.read_text())
        assert log["version"] == "2.1.0"
        # stdout stays human-readable.
        assert "LedgerDiscipline" in capsys.readouterr().out

    def test_json_format_flag_matches_json_switch(self, tmp_path, capsys):
        _seed_violation(tmp_path)
        assert main(["lint", "--format", "json", str(tmp_path)]) == 1
        payload = json.loads(capsys.readouterr().out)
        schema.validate(payload, LINT_REPORT)
