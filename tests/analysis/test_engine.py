"""Engine mechanics: registry, CLI, file walking."""

from __future__ import annotations

import json

import pytest

from repro.analysis import AnalysisEngine, Rule, register, registered_rules
from repro.analysis.__main__ import main as cli_main

# Two LOCK001 findings: shared counters written outside the lock.
BAD_LOCK = (
    "import threading\n"
    "\n"
    "class Cache:\n"
    "    def __init__(self):\n"
    "        self._lock = threading.Lock()\n"
    "        self._hits = 0\n"
    "        self._misses = 0\n"
    "\n"
    "    def record(self, hit):\n"
    "        self._misses += 1\n"
    "        self._hits += 1\n"
)

FIVE_RULES = ["ASYNC001", "LOCK001", "LOCK002", "SER001", "VER001"]


class TestRegistry:
    def test_builtin_rules_registered(self):
        assert sorted(registered_rules()) == FIVE_RULES

    def test_descriptions_present(self):
        for name, cls in registered_rules().items():
            assert cls.description, f"{name} has no description"

    def test_register_rejects_unnamed(self):
        class Nameless(Rule):
            pass

        with pytest.raises(ValueError):
            register(Nameless)

    def test_register_rejects_duplicate_name(self):
        class Dup(Rule):
            name = "LOCK001"

        with pytest.raises(ValueError):
            register(Dup)

    def test_custom_rule_runs(self):
        class Banned(Rule):
            name = "TEST001"
            description = "no evil()"

            def check(self, module):
                import ast

                for node in ast.walk(module.tree):
                    if isinstance(node, ast.Call) and \
                            getattr(node.func, "id", "") == "evil":
                        yield self.finding(module, node, "evil call")

        engine = AnalysisEngine(rules=[Banned()])
        findings = engine.check_source("evil()\n", path="x.py")
        assert [f.rule for f in findings] == ["TEST001"]


class TestEngineBehavior:
    def test_syntax_error_reported_not_raised(self):
        engine = AnalysisEngine()
        findings = engine.check_source("def broken(:\n", path="bad.py")
        assert findings == []
        assert engine.errors and "bad.py" in engine.errors[0]

    def test_findings_sorted_by_location(self):
        findings = AnalysisEngine().check_source(BAD_LOCK, path="probe.py")
        assert [f.line for f in findings] == [10, 11]


class TestCli:
    def _write_pkg(self, tmp_path, body):
        target = tmp_path / "mod.py"
        target.write_text(body)
        return str(target)

    def test_exit_zero_on_clean(self, tmp_path, capsys):
        path = self._write_pkg(tmp_path, "x = 1\n")
        assert cli_main([path]) == 0
        assert "0 finding(s)" in capsys.readouterr().out

    def test_exit_one_on_findings(self, tmp_path, capsys):
        path = self._write_pkg(tmp_path, BAD_LOCK)
        assert cli_main([path]) == 1
        out = capsys.readouterr().out
        assert "LOCK001" in out and "mod.py:10" in out

    def test_missing_path_is_usage_error(self, capsys):
        assert cli_main(["definitely/not/here.py"]) == 2

    def test_sarif_format(self, tmp_path, capsys):
        path = self._write_pkg(tmp_path, BAD_LOCK)
        assert cli_main([path, "--format", "sarif"]) == 1
        doc = json.loads(capsys.readouterr().out)
        assert doc["version"] == "2.1.0"
        run = doc["runs"][0]
        assert run["tool"]["driver"]["name"] == "optlint"
        rule_ids = [r["id"] for r in run["tool"]["driver"]["rules"]]
        assert rule_ids == FIVE_RULES
        result = run["results"][0]
        assert result["ruleId"] == "LOCK001"
        assert result["ruleIndex"] == FIVE_RULES.index("LOCK001")
        loc = result["locations"][0]["physicalLocation"]
        assert loc["artifactLocation"]["uri"].endswith("mod.py")
        assert loc["region"]["startLine"] == 10
        assert loc["region"]["startColumn"] >= 1  # SARIF is 1-based

    def test_sarif_on_clean_tree_has_no_results(self, tmp_path, capsys):
        path = self._write_pkg(tmp_path, "x = 1\n")
        assert cli_main([path, "--format", "sarif"]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["runs"][0]["results"] == []

    def test_github_format_is_rejected(self, tmp_path, capsys):
        # CI annotates from the SARIF upload; there is no ::error format.
        path = self._write_pkg(tmp_path, BAD_LOCK)
        with pytest.raises(SystemExit) as exc:
            cli_main([path, "--format", "github"])
        assert exc.value.code == 2
        assert "invalid choice: 'github'" in capsys.readouterr().err

    def test_stats_line_on_stderr(self, tmp_path, capsys):
        path = self._write_pkg(tmp_path, "x = 1\n")
        assert cli_main([path, "--stats"]) == 0
        err = capsys.readouterr().err
        assert "optlint: 1 file(s)" in err
        assert "project rules" in err

