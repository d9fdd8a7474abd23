"""Reporter output: text rendering and JSON report round-trip.

Rejections of malformed JSON reports live in the schema conformance
corpus (``tests/obs/test_schema.py``).
"""

import json

from repro.lint import (
    LINT_REPORT,
    Finding,
    LintResult,
    render_json,
    render_text,
    report_dict,
)
from repro.lint.reporters import load_findings
from repro.obs import schema


def _result():
    return LintResult(
        findings=[
            Finding(
                rule="LedgerDiscipline",
                path="src/repro/perf/primitives.py",
                line=12,
                col=5,
                message="raw accumulation",
            ),
            Finding(
                rule="UnitsHygiene",
                path="src/repro/perf/matvec.py",
                line=3,
                col=1,
                message="units must agree",
            ),
        ],
        files=["src/repro/perf/primitives.py", "src/repro/perf/matvec.py"],
        rules=["LedgerDiscipline", "UnitsHygiene"],
        suppressed=1,
    )


class TestTextReporter:
    def test_findings_rendered_as_path_line_col(self):
        text = render_text(_result())
        assert (
            "src/repro/perf/primitives.py:12:5: LedgerDiscipline: "
            "raw accumulation" in text
        )
        assert text.endswith("2 finding(s) in 2 file(s) (1 suppressed)")

    def test_clean_summary(self):
        text = render_text(LintResult(files=["a.py"], rules=["UnitsHygiene"]))
        assert text == "clean: 1 file(s) linted"


class TestJsonReporter:
    def test_schema_fields(self):
        payload = report_dict(_result())
        assert payload["schema"] == LINT_REPORT.id
        assert payload["files"] == 2
        assert payload["suppressed"] == 1
        assert payload["counts"] == {"LedgerDiscipline": 1, "UnitsHygiene": 1}
        assert len(payload["findings"]) == 2

    def test_round_trip(self):
        result = _result()
        payload = json.loads(render_json(result))
        assert load_findings(payload) == result.findings

    def test_validate_accepts_empty_report(self):
        payload = report_dict(LintResult(rules=["UnitsHygiene"]))
        schema.validate(payload, LINT_REPORT)


class TestSarifReporter:
    def test_sarif_log_structure(self):
        from repro.lint import render_sarif

        log = json.loads(render_sarif(_result()))
        assert log["version"] == "2.1.0"
        assert len(log["runs"]) == 1
        run = log["runs"][0]
        assert run["tool"]["driver"]["name"] == "repro-lint"
        assert len(run["results"]) == 2

    def test_results_carry_location_and_rule_index(self):
        from repro.lint import render_sarif

        log = json.loads(render_sarif(_result()))
        run = log["runs"][0]
        rules = run["tool"]["driver"]["rules"]
        for entry in run["results"]:
            location = entry["locations"][0]["physicalLocation"]
            assert location["artifactLocation"]["uri"].endswith(".py")
            assert location["region"]["startLine"] > 0
            assert location["region"]["startColumn"] > 0
            assert rules[entry["ruleIndex"]]["id"] == entry["ruleId"]

    def test_registered_rules_carry_descriptions(self):
        from repro.lint import all_rules, render_sarif, run_lint

        result = run_lint([], all_rules())
        log = json.loads(render_sarif(result))
        rules = log["runs"][0]["tool"]["driver"]["rules"]
        assert {r["id"] for r in rules} >= {
            "LedgerDiscipline",
            "UnitsHygiene",
        }
        for rule in rules:
            assert rule["shortDescription"]["text"]

    def test_clean_run_has_empty_results(self):
        from repro.lint import render_sarif

        log = json.loads(
            render_sarif(LintResult(files=["a.py"], rules=["UnitsHygiene"]))
        )
        assert log["runs"][0]["results"] == []
