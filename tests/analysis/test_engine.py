"""Engine mechanics: registry, suppressions, CLI, file walking."""

from __future__ import annotations

import json
import textwrap

import pytest

from repro.analysis import (
    AnalysisEngine,
    Rule,
    register,
    registered_rules,
    suppressed_rules_for_line,
)
from repro.analysis.__main__ import main as cli_main

BAD_DET = "import numpy as np\nrng = np.random.default_rng()\n"

NINE_RULES = ["ASYNC001", "DET001", "DIST001", "FLT001", "LOCK001",
              "LOCK002", "PLAN001", "SER001", "VER001"]


def check(source: str, rules=None):
    engine = AnalysisEngine(rules=rules)
    findings = engine.check_source(textwrap.dedent(source), path="probe.py")
    return engine, findings


class TestRegistry:
    def test_builtin_rules_registered(self):
        names = set(registered_rules())
        assert {"LOCK001", "VER001", "FLT001", "DET001", "DIST001"} <= names

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
            name = "DET001"

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


class TestSuppressions:
    def test_same_line_directive(self):
        src = BAD_DET.replace(
            "default_rng()", "default_rng()  # optlint: disable=DET001"
        )
        engine, findings = check(src)
        assert findings == []
        assert len(engine.suppressed) == 1

    def test_previous_line_comment_directive(self):
        src = (
            "import numpy as np\n"
            "# optlint: disable=DET001\n"
            "rng = np.random.default_rng()\n"
        )
        _, findings = check(src)
        assert findings == []

    def test_disable_all(self):
        src = BAD_DET.replace(
            "default_rng()", "default_rng()  # optlint: disable=all"
        )
        _, findings = check(src)
        assert findings == []

    def test_wrong_rule_does_not_suppress(self):
        src = BAD_DET.replace(
            "default_rng()", "default_rng()  # optlint: disable=FLT001"
        )
        _, findings = check(src)
        assert [f.rule for f in findings] == ["DET001"]

    def test_multiple_rules_in_one_directive(self):
        assert suppressed_rules_for_line(
            ["x = 1  # optlint: disable=FLT001, DET001"], 1
        ) == {"FLT001", "DET001"}


class TestEngineBehavior:
    def test_syntax_error_reported_not_raised(self):
        engine = AnalysisEngine()
        findings = engine.check_source("def broken(:\n", path="bad.py")
        assert findings == []
        assert engine.errors and "bad.py" in engine.errors[0]

    def test_findings_sorted_by_location(self):
        src = (
            "import numpy as np\n"
            "b = np.random.default_rng()\n"
            "a = np.random.rand(3)\n"
        )
        _, findings = check(src)
        assert [f.line for f in findings] == sorted(f.line for f in findings)

    def test_finding_to_dict_schema(self):
        _, findings = check(BAD_DET)
        doc = findings[0].to_dict()
        assert set(doc) == {"rule", "path", "line", "col", "message"}


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
        path = self._write_pkg(tmp_path, BAD_DET)
        assert cli_main([path]) == 1
        out = capsys.readouterr().out
        assert "DET001" in out and "mod.py:2" in out

    def test_json_format(self, tmp_path, capsys):
        path = self._write_pkg(tmp_path, BAD_DET)
        assert cli_main([path, "--format", "json"]) == 1
        doc = json.loads(capsys.readouterr().out)
        assert doc["findings"][0]["rule"] == "DET001"
        assert "DET001" in doc["rules"]

    def test_rules_subset(self, tmp_path):
        path = self._write_pkg(tmp_path, BAD_DET)
        assert cli_main([path, "--rules", "FLT001"]) == 0
        assert cli_main([path, "--rules", "DET001"]) == 1

    def test_unknown_rule_is_usage_error(self, tmp_path, capsys):
        path = self._write_pkg(tmp_path, "x = 1\n")
        assert cli_main([path, "--rules", "NOPE999"]) == 2
        err = capsys.readouterr().err
        assert "NOPE999" in err
        # The error names the valid rules so the fix is self-evident.
        for name in ("DET001", "LOCK002", "ASYNC001"):
            assert name in err

    def test_missing_path_is_usage_error(self, capsys):
        assert cli_main(["definitely/not/here.py"]) == 2

    def test_list_rules(self, capsys):
        assert cli_main(["--list-rules"]) == 0
        out = capsys.readouterr().out
        assert [line.split()[0] for line in out.splitlines()] == NINE_RULES

    def test_deleted_rule_is_usage_error(self, tmp_path, capsys):
        path = self._write_pkg(tmp_path, "x = 1\n")
        assert cli_main([path, "--rules", "VER002"]) == 2
        err = capsys.readouterr().err
        valid = err.split("valid rules: ", 1)[1].strip()
        assert valid.split(", ") == NINE_RULES

    def test_sarif_format(self, tmp_path, capsys):
        path = self._write_pkg(tmp_path, BAD_DET)
        assert cli_main([path, "--format", "sarif"]) == 1
        doc = json.loads(capsys.readouterr().out)
        assert doc["version"] == "2.1.0"
        run = doc["runs"][0]
        assert run["tool"]["driver"]["name"] == "optlint"
        rule_ids = [r["id"] for r in run["tool"]["driver"]["rules"]]
        assert "DET001" in rule_ids and "ASYNC001" in rule_ids
        (result,) = run["results"]
        assert result["ruleId"] == "DET001"
        loc = result["locations"][0]["physicalLocation"]
        assert loc["artifactLocation"]["uri"].endswith("mod.py")
        assert loc["region"]["startLine"] == 2
        assert loc["region"]["startColumn"] >= 1  # SARIF is 1-based

    def test_sarif_on_clean_tree_has_no_results(self, tmp_path, capsys):
        path = self._write_pkg(tmp_path, "x = 1\n")
        assert cli_main([path, "--format", "sarif"]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["runs"][0]["results"] == []

    def test_github_format_is_rejected(self, tmp_path, capsys):
        # CI annotates from the SARIF upload; there is no ::error format.
        path = self._write_pkg(tmp_path, BAD_DET)
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

