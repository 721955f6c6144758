"""The optlint engine: per-file AST analysis with a pluggable rule registry.

The LEC framework's correctness rests on invariants the type system
cannot express: the serving layer's plan cache is only sound if every
catalog mutation bumps the version fence and every shared structure is
touched under its lock, and the cluster's event loop must never block.
This module provides the machinery to enforce such invariants as
repo-specific static-analysis rules:

* :class:`Rule` — one invariant checker.  A rule declares ``name`` (the
  finding code, e.g. ``LOCK001``), a one-line ``description``, and a
  :meth:`Rule.check` generator over a parsed :class:`ModuleInfo`.
* :func:`register` — class decorator adding a rule to the global
  registry; ``repro.analysis.rules`` registers the built-in rule set on
  import.
* :class:`AnalysisEngine` — parses each file once into a
  :class:`ModuleInfo` (AST with parent links) and dispatches every
  registered rule over it.  There is no inline suppression: a finding
  is fixed in code, or the rule is changed together with its mutation
  case.

Findings are plain data (:class:`Finding`) so callers can render text,
SARIF, or assert on them in tests.
"""

from __future__ import annotations

import ast
import os
import time
from dataclasses import dataclass, field
from typing import Dict, Iterable, Iterator, List, Optional, Sequence, Type

__all__ = [
    "Finding",
    "ModuleInfo",
    "Rule",
    "ProjectRule",
    "register",
    "registered_rules",
    "AnalysisEngine",
    "iter_python_files",
]


@dataclass(frozen=True)
class Finding:
    """One rule violation at one source location."""

    rule: str
    path: str
    line: int
    col: int
    message: str

    def location(self) -> str:
        """``path:line:col`` for terminal output."""
        return f"{self.path}:{self.line}:{self.col}"


@dataclass
class ModuleInfo:
    """One parsed source file, shared by every rule.

    ``parents`` maps each AST node to its syntactic parent, letting
    rules walk outward (e.g. "is this assignment inside a ``with
    self._lock`` block?") without re-traversing the tree.
    """

    path: str
    source: str
    tree: ast.Module
    parents: Dict[ast.AST, ast.AST] = field(default_factory=dict)

    @classmethod
    def parse(cls, path: str, source: str) -> "ModuleInfo":
        tree = ast.parse(source, filename=path)
        info = cls(path=path, source=source, tree=tree)
        for parent in ast.walk(tree):
            for child in ast.iter_child_nodes(parent):
                info.parents[child] = parent
        return info

    def ancestors(self, node: ast.AST) -> Iterator[ast.AST]:
        """Walk from ``node``'s parent up to the module root."""
        cur = self.parents.get(node)
        while cur is not None:
            yield cur
            cur = self.parents.get(cur)


class Rule:
    """Base class for one static-analysis rule.

    Subclasses set :attr:`name` (the finding code), :attr:`description`
    and implement :meth:`check`, yielding :class:`Finding` objects.  The
    :meth:`finding` helper fills in the boilerplate.
    """

    name: str = ""
    description: str = ""

    def check(self, module: ModuleInfo) -> Iterator[Finding]:
        raise NotImplementedError

    def finding(self, module: ModuleInfo, node: ast.AST,
                message: str) -> Finding:
        return Finding(
            rule=self.name,
            path=module.path,
            line=getattr(node, "lineno", 1),
            col=getattr(node, "col_offset", 0),
            message=message,
        )

    def finding_loc(self, path: str, line: int, col: int,
                    message: str) -> Finding:
        """Like :meth:`finding`, for project rules holding raw coordinates."""
        return Finding(rule=self.name, path=path, line=line, col=col,
                       message=message)


class ProjectRule(Rule):
    """A rule scoped to the whole program instead of one module.

    Subclasses implement :meth:`check_project` over a
    :class:`~repro.analysis.project.ProjectInfo`; the per-module
    :meth:`check` hook is a no-op so project rules compose with the
    existing engine dispatch.  When the engine is given a single source
    string (the fixture path used by the rule tests) it builds a
    one-module project, so project rules stay testable in isolation.
    """

    def check(self, module: ModuleInfo) -> Iterator[Finding]:
        return iter(())

    def check_project(self, project) -> Iterator[Finding]:
        raise NotImplementedError


_REGISTRY: Dict[str, Type[Rule]] = {}


def register(rule_cls: Type[Rule]) -> Type[Rule]:
    """Class decorator: add a :class:`Rule` subclass to the registry."""
    if not rule_cls.name:
        raise ValueError(f"rule {rule_cls.__name__} must set a name")
    if rule_cls.name in _REGISTRY and _REGISTRY[rule_cls.name] is not rule_cls:
        raise ValueError(f"duplicate rule name {rule_cls.name!r}")
    _REGISTRY[rule_cls.name] = rule_cls
    return rule_cls


def registered_rules() -> Dict[str, Type[Rule]]:
    """Snapshot of the registry (name → rule class), built-ins included."""
    # Importing the rules package registers the built-in rule set.
    from . import rules  # noqa: F401  — import for registration side effect

    return dict(_REGISTRY)


def iter_python_files(paths: Iterable[str]) -> Iterator[str]:
    """Expand files/directories into a sorted stream of ``.py`` paths."""
    for path in paths:
        if os.path.isfile(path):
            if path.endswith(".py"):
                yield path
            continue
        if not os.path.isdir(path):
            raise FileNotFoundError(f"no such file or directory: {path}")
        for root, dirnames, filenames in os.walk(path):
            dirnames.sort()
            dirnames[:] = [d for d in dirnames if d != "__pycache__"]
            for fname in sorted(filenames):
                if fname.endswith(".py"):
                    yield os.path.join(root, fname)


class AnalysisEngine:
    """Runs a rule set over files.

    Parameters
    ----------
    rules:
        Rule instances to run; defaults to one instance of every
        registered rule.
    """

    def __init__(self, rules: Optional[Sequence[Rule]] = None):
        if rules is None:
            rules = [cls() for _, cls in sorted(registered_rules().items())]
        self.rules: List[Rule] = list(rules)
        self.errors: List[str] = []
        self.stats: Dict[str, float] = {}

    @property
    def module_rules(self) -> List[Rule]:
        return [r for r in self.rules if not isinstance(r, ProjectRule)]

    @property
    def project_rules(self) -> List[ProjectRule]:
        return [r for r in self.rules if isinstance(r, ProjectRule)]

    # ------------------------------------------------------------------
    # Checking
    # ------------------------------------------------------------------

    def check_modules(self, modules: Sequence[ModuleInfo]) -> List[Finding]:
        """Run module + project rules over parsed modules; update stats."""
        from .project import ProjectInfo

        t0 = time.perf_counter()
        raw: List[Finding] = []
        for module in modules:
            for rule in self.module_rules:
                raw.extend(rule.check(module))
        t1 = time.perf_counter()
        project_rules = self.project_rules
        if project_rules and modules:
            project = ProjectInfo.build(modules)
            for rule in project_rules:
                raw.extend(rule.check_project(project))
        t2 = time.perf_counter()
        self.stats = {
            "files": float(len(modules)),
            "module_rule_seconds": t1 - t0,
            "project_rule_seconds": t2 - t1,
            "total_seconds": t2 - t0,
        }
        return sorted(raw, key=lambda f: (f.path, f.line, f.col, f.rule))

    def check_source(self, source: str, path: str = "<string>") -> List[Finding]:
        """Analyze one in-memory module; used heavily by the rule tests.

        Project-scoped rules see a one-module project, so fixture tests
        exercise them through the same entry point as module rules.
        """
        try:
            module = ModuleInfo.parse(path, source)
        except SyntaxError as exc:
            self.errors.append(f"{path}: syntax error: {exc.msg} (line {exc.lineno})")
            return []
        return self.check_modules([module])

    def check_paths(self, paths: Iterable[str]) -> List[Finding]:
        """Analyze every ``.py`` file reachable from ``paths``.

        All files are parsed first so project-scoped rules check one
        whole-program view instead of per-file slices.
        """
        t0 = time.perf_counter()
        modules: List[ModuleInfo] = []
        for path in iter_python_files(paths):
            with open(path, "r", encoding="utf-8") as fh:
                source = fh.read()
            try:
                modules.append(ModuleInfo.parse(path, source))
            except SyntaxError as exc:
                self.errors.append(
                    f"{path}: syntax error: {exc.msg} (line {exc.lineno})"
                )
        parse_seconds = time.perf_counter() - t0
        findings = self.check_modules(modules)
        self.stats["parse_seconds"] = parse_seconds
        self.stats["total_seconds"] += parse_seconds
        return findings
