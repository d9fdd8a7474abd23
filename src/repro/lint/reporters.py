"""Reporters: human-readable text, a versioned JSON report and SARIF.

The JSON payload (the :data:`LINT_REPORT` schema) is what the CI lint
job uploads as an artifact; :func:`load_findings` validates one and
rebuilds its findings.
"""

from __future__ import annotations

import json
from typing import Any, Dict, List

from repro.lint.core import Finding, LintResult
from repro.obs import schema
from repro.obs.schema import COUNT, Schema

__all__ = [
    "FINDING",
    "LINT_REPORT",
    "SARIF_VERSION",
    "load_findings",
    "render_json",
    "render_sarif",
    "render_text",
    "report_dict",
    "sarif_dict",
]

#: One serialized :class:`~repro.lint.core.Finding` (also in the lint cache).
FINDING: Dict[str, Any] = {
    "type": "object",
    "required": ["rule", "path", "line", "col", "message"],
    "properties": {
        "rule": {"type": "string"},
        "path": {"type": "string"},
        "line": {"type": "integer"},
        "col": {"type": "integer"},
        "message": {"type": "string"},
    },
    "additionalProperties": False,
}

LINT_REPORT = Schema(
    "repro.lint/v1",
    {
        "title": "repro lint report",
        "type": "object",
        "required": ["rules", "files", "suppressed", "counts", "findings"],
        "properties": {
            "rules": {"type": "array"},
            "files": COUNT,
            "suppressed": COUNT,
            "counts": {"type": "object"},
            "findings": {"type": "array", "items": FINDING},
        },
    },
)

SARIF_VERSION = "2.1.0"
_SARIF_SCHEMA_URI = (
    "https://docs.oasis-open.org/sarif/sarif/v2.1.0/errata01/os/schemas/"
    "sarif-schema-2.1.0.json"
)


def report_dict(result: LintResult) -> Dict[str, object]:
    """Machine-readable report for one lint run."""
    return {
        "schema": LINT_REPORT.id,
        "rules": list(result.rules),
        "files": len(result.files),
        "suppressed": result.suppressed,
        "counts": result.counts_by_rule(),
        "findings": [finding.to_dict() for finding in result.findings],
    }


def render_json(result: LintResult) -> str:
    return json.dumps(report_dict(result), indent=1, sort_keys=True)


def render_text(result: LintResult) -> str:
    """One ``path:line:col: Rule: message`` line per finding + summary."""
    lines = [finding.render() for finding in result.findings]
    suffix = f" ({result.suppressed} suppressed)" if result.suppressed else ""
    if result.findings:
        lines.append(
            f"{len(result.findings)} finding(s) in "
            f"{len(result.files)} file(s){suffix}"
        )
    else:
        lines.append(f"clean: {len(result.files)} file(s) linted{suffix}")
    return "\n".join(lines)


def sarif_dict(result: LintResult) -> Dict[str, object]:
    """SARIF 2.1.0 log for one lint run (one run, one result per finding).

    Rule metadata comes from the registry so the SARIF ``rules`` array
    carries descriptions for code-scanning UIs; rules that ran but are
    no longer registered (cached results after a rename) degrade to a
    bare id.
    """
    from repro.lint.registry import rule_descriptions

    descriptions = rule_descriptions()
    rules_meta = [
        {
            "id": name,
            "shortDescription": {
                "text": descriptions.get(name) or name,
            },
        }
        for name in sorted(set(result.rules) | {f.rule for f in result.findings})
    ]
    rule_index = {meta["id"]: position for position, meta in enumerate(rules_meta)}
    results = [
        {
            "ruleId": finding.rule,
            "ruleIndex": rule_index[finding.rule],
            "level": "error",
            "message": {"text": finding.message},
            "locations": [
                {
                    "physicalLocation": {
                        "artifactLocation": {
                            "uri": finding.path,
                            "uriBaseId": "SRCROOT",
                        },
                        "region": {
                            "startLine": finding.line,
                            "startColumn": finding.col,
                        },
                    }
                }
            ],
        }
        for finding in result.findings
    ]
    return {
        "$schema": _SARIF_SCHEMA_URI,
        "version": SARIF_VERSION,
        "runs": [
            {
                "tool": {
                    "driver": {
                        "name": "repro-lint",
                        "rules": rules_meta,
                    }
                },
                "originalUriBaseIds": {"SRCROOT": {"uri": "file:///"}},
                "results": results,
            }
        ],
    }


def render_sarif(result: LintResult) -> str:
    return json.dumps(sarif_dict(result), indent=1, sort_keys=True)


def load_findings(payload: Dict[str, Any]) -> List[Finding]:
    """Rebuild :class:`Finding` objects from a validated report payload."""
    schema.validate(payload, LINT_REPORT)
    return [Finding(**item) for item in payload["findings"]]
