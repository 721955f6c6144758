"""Inline suppression directives: ``# optlint: disable=RULE``.

A directive covers its own line, or — on a standalone comment line —
the statement below it.  The rule list may be followed by a free-text
justification.
"""

from __future__ import annotations

from repro.analysis.engine import (
    AnalysisEngine,
    parse_directives,
    suppressed_rules_for_line,
)


class TestContinuationLineSuppressions:
    def test_directive_on_standalone_comment_covers_next_line(self):
        lines = [
            "# optlint: disable=FLT001",
            "matches = cost == other.cost",
        ]
        assert suppressed_rules_for_line(lines, 2) == {"FLT001"}

    def test_directive_after_code_does_not_leak_to_next_line(self):
        lines = [
            "x = 1  # optlint: disable=FLT001",
            "matches = cost == other.cost",
        ]
        assert suppressed_rules_for_line(lines, 2) == set()
        assert suppressed_rules_for_line(lines, 1) == {"FLT001"}

    def test_multiple_rules_and_whitespace(self):
        assert parse_directives(
            "#  optlint:  disable= FLT001 , LOCK001 ,SER001"
        ) == {"FLT001", "LOCK001", "SER001"}

    def test_indented_standalone_comment_still_applies(self):
        lines = [
            "def f():",
            "    # optlint: disable=all",
            "    return cost == other.cost",
        ]
        assert suppressed_rules_for_line(lines, 3) == {"all"}


class TestJustifiedDirectives:
    def test_first_non_rule_word_starts_the_justification(self):
        assert parse_directives(
            "x = a  # optlint: disable=FLT001 exact sentinel"
        ) == {"FLT001"}
        assert parse_directives(
            "x = a  # optlint: disable=FLT001, DET001 both intended"
        ) == {"FLT001", "DET001"}
        assert parse_directives(
            "x = a  # optlint: disable=all allocated on purpose"
        ) == {"all"}

    def test_justified_directive_suppresses_the_finding(self):
        engine = AnalysisEngine()
        findings = engine.check_source(
            "same = cost == other_cost  # optlint: disable=FLT001 exact sentinel\n",
            path="probe.py",
        )
        assert findings == []
        assert [f.rule for f in engine.suppressed] == ["FLT001"]
