"""Repo self-consistency: registry, claim tests, layering, docs and examples agree."""

from __future__ import annotations

import ast
import graphlib
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


def _imports(path: pathlib.Path, package: str, bodies_only: bool = False):
    """Absolute dotted names ``path`` imports, function bodies included.

    With ``bodies_only``, only the imports made inside a function body.
    """
    tree = ast.parse(path.read_text())
    nodes = ast.walk(tree)
    if bodies_only:  # by id: a nested function's imports are walked once
        nodes = {id(n): n for f in ast.walk(tree)
                 if isinstance(f, (ast.FunctionDef, ast.AsyncFunctionDef))
                 for n in ast.walk(f)}.values()
    for node in nodes:
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


SRC = REPO / "src" / "repro"


def _modules():
    """``(path, dotted package, top-level package)`` of every src module
    below ``repro`` itself (``repro/__init__.py`` re-exports them all)."""
    for path in sorted(SRC.rglob("*.py")):
        parts = path.relative_to(SRC).parts
        if parts == ("__init__.py",):
            continue
        package = ".".join(path.relative_to(SRC.parent).parts[:-1])
        yield path, package, parts[0].removesuffix(".py")


def _other_packages(names, top):
    return {n.split(".")[1] for n in names
            if n.startswith("repro.") and n.split(".")[1] != top}


class TestLayering:
    """One package DAG, in the paper's order: distributions, then cost
    formulas over them, then one DP under different costings."""

    #: The spine, lowest first; each package imports only those before it.
    SPINE = ("core", "catalog", "plans", "costmodel", "optimizer", "serving", "cluster")
    #: ``repro.core`` modules that only re-export ``repro.costmodel``
    #: names ``bench/trace.py`` resolves by dotted path (ROADMAP item 1).
    ALIASES = ("core/context.py", "core/expected_cost.py")

    def graph(self):
        graph = {}
        for path, package, top in _modules():
            if path.relative_to(SRC).as_posix() in self.ALIASES:
                continue
            graph.setdefault(top, set()).update(
                _other_packages(_imports(path, package), top))
        return graph

    def test_the_package_graph_is_acyclic(self):
        graphlib.TopologicalSorter(self.graph()).prepare()  # raises CycleError

    def test_lower_layers_never_import_the_upper_ones(self):
        graph = self.graph()
        offenders = [
            f"{low} -> {high}"
            for i, low in enumerate(self.SPINE)
            for high in self.SPINE[i + 1:]
            if high in graph[low]
        ]
        assert not offenders, offenders

    def test_the_numeric_floor_imports_no_other_repro_package(self):
        assert not self.graph()["core"]

    def test_each_core_alias_is_a_docstring_and_one_import(self):
        for alias in self.ALIASES:
            body = ast.parse((SRC / alias).read_text()).body
            assert len(body) == 2, alias
            assert isinstance(body[0], ast.Expr) and isinstance(body[0].value, ast.Constant)
            assert isinstance(body[1], ast.ImportFrom), alias
            assert body[1].module.startswith("costmodel."), alias

    def test_no_cross_package_import_in_a_function_body(self):
        offenders = [
            f"{path.relative_to(SRC)}: {name}"
            for path, package, top in _modules()
            if top != "analysis"
            for name in _imports(path, package, bodies_only=True)
            if _other_packages([name], top)
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
