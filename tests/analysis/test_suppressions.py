"""Inline suppression directives: ``# optlint: disable=RULE``.

A directive covers its own line, or — on a standalone comment line —
the statement below it.
"""

from __future__ import annotations

from repro.analysis.engine import parse_directives, suppressed_rules_for_line


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
            "#  optlint:  disable= FLT001 , LOCK001 ,VER002"
        ) == {"FLT001", "LOCK001", "VER002"}

    def test_indented_standalone_comment_still_applies(self):
        lines = [
            "def f():",
            "    # optlint: disable=all",
            "    return cost == other.cost",
        ]
        assert suppressed_rules_for_line(lines, 3) == {"all"}
