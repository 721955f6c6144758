"""CLI for the optlint engine: ``python -m repro.analysis <paths>``.

Exit codes: 0 — clean; 1 — findings; 2 — usage or parse errors.  CI
runs ``python -m repro.analysis src --stats`` as the gate and
``--format sarif`` for code-scanning annotations.
"""

from __future__ import annotations

import argparse
import sys
from typing import List, Optional, Sequence

from .engine import AnalysisEngine, Finding, registered_rules
from .sarif import render_sarif


def _render_text(findings: List[Finding], engine: AnalysisEngine) -> str:
    lines = [f"{f.location()}: {f.rule}: {f.message}" for f in findings]
    summary = f"{len(findings)} finding(s)"
    if engine.errors:
        lines.extend(f"error: {msg}" for msg in engine.errors)
        summary += f", {len(engine.errors)} parse error(s)"
    lines.append(summary)
    return "\n".join(lines)


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.analysis",
        description="Project-specific static analysis for the LEC repo.",
    )
    parser.add_argument("paths", nargs="*", default=["src"],
                        help="files/directories to check (default: src)")
    parser.add_argument("--format", default="text",
                        choices=("text", "sarif"),
                        help="output format (default: text); `sarif` emits "
                             "a SARIF 2.1.0 document for code-scanning "
                             "upload")
    parser.add_argument("--stats", action="store_true",
                        help="print a timing line (files, parse/module-rule/"
                             "project-rule seconds) to stderr")
    args = parser.parse_args(argv)

    engine = AnalysisEngine()
    try:
        findings = engine.check_paths(args.paths)
    except FileNotFoundError as exc:
        print(str(exc), file=sys.stderr)
        return 2

    if args.format == "text":
        print(_render_text(findings, engine))
    else:  # sarif
        print(render_sarif(findings, registered_rules()))
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
