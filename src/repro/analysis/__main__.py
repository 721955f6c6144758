"""CLI for the optlint engine: ``python -m repro.analysis <paths>``.

Exit codes: 0 — clean (or fully suppressed inline); 1 — findings;
2 — usage or parse errors.  The CI invocation is just
``python -m repro.analysis src``.
"""

from __future__ import annotations

import argparse
import json
import sys
from typing import Dict, List, Optional, Sequence

from .engine import AnalysisEngine, Finding, registered_rules
from .sarif import render_sarif


def _render_text(findings: List[Finding], engine: AnalysisEngine) -> str:
    lines = [f"{f.location()}: {f.rule}: {f.message}" for f in findings]
    summary = (
        f"{len(findings)} finding(s), "
        f"{len(engine.suppressed)} suppressed"
    )
    if engine.errors:
        lines.extend(f"error: {msg}" for msg in engine.errors)
        summary += f", {len(engine.errors)} parse error(s)"
    lines.append(summary)
    return "\n".join(lines)


def _render_json(findings: List[Finding], engine: AnalysisEngine) -> str:
    doc: Dict[str, object] = {
        "findings": [f.to_dict() for f in findings],
        "suppressed": len(engine.suppressed),
        "errors": list(engine.errors),
        "rules": {
            name: cls.description for name, cls in registered_rules().items()
        },
    }
    return json.dumps(doc, indent=2, sort_keys=True)


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.analysis",
        description="Project-specific static analysis for the LEC repo.",
    )
    parser.add_argument("paths", nargs="*", default=["src"],
                        help="files/directories to check (default: src)")
    parser.add_argument("--format", default="text",
                        choices=("text", "json", "sarif"),
                        help="output format (default: text); `sarif` emits "
                             "a SARIF 2.1.0 document for code-scanning "
                             "upload")
    parser.add_argument("--rules", default=None, metavar="R1,R2",
                        help="comma-separated subset of rules to run")
    parser.add_argument("--list-rules", action="store_true",
                        help="print the rule catalog and exit")
    parser.add_argument("--stats", action="store_true",
                        help="print a timing line (files, parse/module-rule/"
                             "project-rule seconds) to stderr")
    args = parser.parse_args(argv)

    rule_classes = registered_rules()
    if args.list_rules:
        for name in sorted(rule_classes):
            print(f"{name}  {rule_classes[name].description}")
        return 0

    selected = None
    if args.rules:
        wanted = {tok.strip() for tok in args.rules.split(",") if tok.strip()}
        unknown = wanted - set(rule_classes)
        if unknown:
            print(f"unknown rule(s): {', '.join(sorted(unknown))}; "
                  f"valid rules: {', '.join(sorted(rule_classes))}",
                  file=sys.stderr)
            return 2
        selected = [rule_classes[name]() for name in sorted(wanted)]

    engine = AnalysisEngine(rules=selected)
    try:
        findings = engine.check_paths(args.paths)
    except FileNotFoundError as exc:
        print(str(exc), file=sys.stderr)
        return 2

    if args.format == "text":
        print(_render_text(findings, engine))
    elif args.format == "json":
        print(_render_json(findings, engine))
    else:  # sarif
        print(render_sarif(findings, rule_classes))
    if args.stats:
        stats = engine.stats
        print(
            f"optlint: {int(stats.get('files', 0))} file(s) in "
            f"{stats.get('total_seconds', 0.0):.3f}s "
            f"(parse {stats.get('parse_seconds', 0.0):.3f}s, "
            f"module rules {stats.get('module_rule_seconds', 0.0):.3f}s, "
            f"project rules {stats.get('project_rule_seconds', 0.0):.3f}s)",
            file=sys.stderr,
        )
    if engine.errors:
        return 2
    return 1 if findings else 0


if __name__ == "__main__":
    sys.exit(main())
