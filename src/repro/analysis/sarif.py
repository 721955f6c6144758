"""SARIF 2.1.0 rendering for optlint findings.

SARIF is the interchange format GitHub code scanning ingests: uploading
the run via ``github/codeql-action/upload-sarif`` renders each finding
as an annotation on the PR diff, which is where a lock-order or
event-loop-blocking finding is actually actionable.  The document
produced here is deliberately minimal — one run, one tool, one result
per finding with a physical location — because that is the subset every
SARIF consumer agrees on.
"""

from __future__ import annotations

import json
from typing import Dict, List, Sequence, Type

from .engine import Finding, Rule

__all__ = ["render_sarif"]

SARIF_VERSION = "2.1.0"
SARIF_SCHEMA = (
    "https://raw.githubusercontent.com/oasis-tcs/sarif-spec/master/"
    "Schemata/sarif-schema-2.1.0.json"
)


def render_sarif(findings: Sequence[Finding],
                 rule_classes: Dict[str, Type[Rule]]) -> str:
    """One SARIF 2.1.0 document covering all findings."""
    rules: List[Dict[str, object]] = [
        {
            "id": name,
            "shortDescription": {"text": cls.description},
        }
        for name, cls in sorted(rule_classes.items())
    ]
    rule_index = {name: i for i, name in enumerate(sorted(rule_classes))}
    results: List[Dict[str, object]] = []
    for f in findings:
        result: Dict[str, object] = {
            "ruleId": f.rule,
            "level": "error",
            "message": {"text": f.message},
            "locations": [
                {
                    "physicalLocation": {
                        "artifactLocation": {
                            "uri": f.path.replace("\\", "/"),
                        },
                        "region": {
                            "startLine": f.line,
                            # SARIF columns are 1-based; ours are 0-based.
                            "startColumn": f.col + 1,
                        },
                    }
                }
            ],
        }
        if f.rule in rule_index:
            result["ruleIndex"] = rule_index[f.rule]
        results.append(result)
    doc: Dict[str, object] = {
        "$schema": SARIF_SCHEMA,
        "version": SARIF_VERSION,
        "runs": [
            {
                "tool": {
                    "driver": {
                        "name": "optlint",
                        "rules": rules,
                    }
                },
                "results": results,
            }
        ],
    }
    return json.dumps(doc, indent=2, sort_keys=True)

