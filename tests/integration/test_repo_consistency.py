"""Repo self-consistency: registry, claim tests, layering, docs and examples agree."""

from __future__ import annotations

import ast
import importlib
import pathlib
import re

import pytest

from repro.experiments.harness import EXPERIMENTS

REPO = pathlib.Path(__file__).resolve().parents[2]


class TestExperimentWiring:
    def test_every_experiment_module_importable_with_run(self):
        for exp_id, module_path in EXPERIMENTS.items():
            module = importlib.import_module(module_path)
            assert callable(getattr(module, "run", None)), exp_id

    def test_every_experiment_has_a_claim_test(self):
        claims = (REPO / "tests" / "experiments" / "test_claims.py").read_text()
        asserted = set(re.findall(r"^class Test(E\d+)(?!\d)", claims, re.M))
        for exp_id in EXPERIMENTS:
            assert exp_id in asserted, f"no TestE* class asserts {exp_id}'s claims"

    def test_design_md_indexes_every_experiment(self):
        design = (REPO / "DESIGN.md").read_text()
        for exp_id in EXPERIMENTS:
            assert re.search(rf"\| {exp_id} \|", design), (
                f"{exp_id} missing from DESIGN.md experiment index"
            )

    def test_experiments_md_covers_every_experiment(self):
        text = (REPO / "EXPERIMENTS.md").read_text()
        for exp_id in EXPERIMENTS:
            assert re.search(rf"## {exp_id} ", text), (
                f"{exp_id} missing from EXPERIMENTS.md"
            )


def _imported_modules(path: pathlib.Path, package: str):
    """Absolute dotted names ``path`` imports, function bodies included."""
    for node in ast.walk(ast.parse(path.read_text())):
        if isinstance(node, ast.Import):
            yield from (alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom):
            base = package.split(".")
            if node.level:
                base = base[: len(base) - (node.level - 1)]
                if node.module:
                    base += node.module.split(".")
            else:
                base = node.module.split(".")
            # ``from .. import optimizer`` names the module in the alias.
            yield from (".".join(base + [alias.name]) for alias in node.names)


class TestLayering:
    """The optimizers sit on the core; nothing below reaches back up."""

    LOWER = ("core", "costmodel", "plans", "catalog")
    UPPER = ("repro.optimizer", "repro.serving", "repro.cluster")

    def test_lower_layers_never_import_the_upper_ones(self):
        src = REPO / "src" / "repro"
        offenders = []
        for layer in self.LOWER:
            for path in sorted((src / layer).rglob("*.py")):
                package = ".".join(path.relative_to(src.parent).parts[:-1])
                for name in _imported_modules(path, package):
                    if name.startswith(self.UPPER):
                        offenders.append(f"{path.relative_to(REPO)}: {name}")
        assert not offenders, offenders

    #: The modules of ``repro.core`` that take and give plain numbers.
    FLOOR = ("bayesnet", "bucketing", "distributions", "floats", "markov", "parallel")

    def test_the_numeric_floor_imports_no_other_repro_package(self):
        core = REPO / "src" / "repro" / "core"
        offenders = [
            f"core/{module}.py: {name}"
            for module in self.FLOOR
            for name in _imported_modules(core / f"{module}.py", "repro.core")
            if name.startswith("repro.") and not name.startswith("repro.core.")
        ]
        assert not offenders, offenders


class TestExamples:
    def test_examples_exist_and_have_mains(self):
        examples = sorted((REPO / "examples").glob("*.py"))
        assert len(examples) >= 3
        for path in examples:
            text = path.read_text()
            assert '__main__' in text, f"{path.name} is not runnable"
            assert text.lstrip().startswith('"""'), (
                f"{path.name} lacks a module docstring"
            )


class TestPublicApiDocumented:
    @pytest.mark.parametrize(
        "module_path",
        [
            "repro",
            "repro.core",
            "repro.catalog",
            "repro.plans",
            "repro.costmodel",
            "repro.optimizer",
            "repro.engine",
            "repro.workloads",
            "repro.strategies",
            "repro.experiments",
            "repro.tools",
            "repro.db",
        ],
    )
    def test_all_exports_have_docstrings(self, module_path):
        module = importlib.import_module(module_path)
        assert module.__doc__, f"{module_path} lacks a module docstring"
        import typing

        for name in getattr(module, "__all__", []):
            obj = getattr(module, name)
            if typing.get_origin(obj) is not None:
                continue  # type aliases (e.g. PlanNode = Union[...])
            if isinstance(obj, type) or callable(obj):
                assert obj.__doc__, f"{module_path}.{name} lacks a docstring"
