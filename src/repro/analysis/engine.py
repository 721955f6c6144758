"""The optlint engine: per-file AST analysis with a pluggable rule registry.

The LEC framework's correctness rests on invariants the type system
cannot express: cost formulas are discontinuous, so exact float equality
on costs is a latent bug; distributions must stay normalized; the
serving layer's plan cache is only sound if every catalog mutation bumps
the version fence and every shared structure is touched under its lock.
This module provides the machinery to enforce such invariants as
repo-specific static-analysis rules:

* :class:`Rule` — one invariant checker.  A rule declares ``name`` (the
  finding code, e.g. ``LOCK001``), a one-line ``description``, and a
  :meth:`Rule.check` generator over a parsed :class:`ModuleInfo`.
* :func:`register` — class decorator adding a rule to the global
  registry; ``repro.analysis.rules`` registers the built-in rule set on
  import.
* :class:`AnalysisEngine` — parses each file once into a
  :class:`ModuleInfo` (AST with parent links plus source lines) and
  dispatches every registered rule over it, applying inline
  suppressions: ``# optlint: disable=RULE`` (or a comma- or
  space-separated list, or ``all``, then an optional justification) on
  the offending line — the tool for a *justified* violation, e.g. an
  exact ``== 0.0`` guard that intentionally precedes a division.

Findings are plain data (:class:`Finding`) so callers can render text,
JSON, or assert on them in tests.
"""

from __future__ import annotations

import ast
import os
import re
import time
from dataclasses import dataclass, field
from typing import Dict, Iterable, Iterator, List, Optional, Sequence, Set, Type

__all__ = [
    "Finding",
    "ModuleInfo",
    "Rule",
    "ProjectRule",
    "register",
    "registered_rules",
    "AnalysisEngine",
    "iter_python_files",
    "suppressed_rules_for_line",
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

    def to_dict(self) -> Dict[str, object]:
        """JSON-ready representation."""
        return {
            "rule": self.rule,
            "path": self.path,
            "line": self.line,
            "col": self.col,
            "message": self.message,
        }


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
    lines: List[str] = field(default_factory=list)
    parents: Dict[ast.AST, ast.AST] = field(default_factory=dict)

    @classmethod
    def parse(cls, path: str, source: str) -> "ModuleInfo":
        tree = ast.parse(source, filename=path)
        info = cls(path=path, source=source, tree=tree,
                   lines=source.splitlines())
        for parent in ast.walk(tree):
            for child in ast.iter_child_nodes(parent):
                info.parents[child] = parent
        return info

    @property
    def is_test(self) -> bool:
        """Heuristic: test files get a pass from some rules (DET001)."""
        parts = self.path.replace(os.sep, "/").split("/")
        base = parts[-1] if parts else ""
        return (
            "tests" in parts
            or base.startswith("test_")
            or base.endswith("_test.py")
            or base == "conftest.py"
        )

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

    def finding_at(self, path: str, node: ast.AST, message: str) -> Finding:
        """Like :meth:`finding`, for rules that only hold a path string."""
        return Finding(
            rule=self.name,
            path=path,
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


_RULE_TOKEN = r"(?:[A-Z]+[0-9]+|all)\b"
_DIRECTIVE = re.compile(
    rf"#\s*optlint:\s*disable=((?:[\s,]*{_RULE_TOKEN})+)"
)


def parse_directives(line: str) -> Set[str]:
    """Rule names disabled by the ``# optlint:`` comment on one line.

    The rule list is the comma- or space-separated run of rule names
    (or ``all``) after ``disable=``; the first other word starts the
    justification, so ``disable=FLT001 exact sentinel`` disables FLT001.
    """
    match = _DIRECTIVE.search(line)
    if not match:
        return set()
    return set(re.findall(_RULE_TOKEN, match.group(1)))


def suppressed_rules_for_line(lines: Sequence[str], lineno: int) -> Set[str]:
    """Rules suppressed at ``lineno`` (1-based).

    A directive applies to its own line; a directive on a line *by
    itself* (nothing but the comment) applies to the following line
    instead, so long statements can keep their suppression adjacent.
    """
    out: Set[str] = set()
    if 1 <= lineno <= len(lines):
        out |= parse_directives(lines[lineno - 1])
    if 2 <= lineno <= len(lines) + 1:
        prev = lines[lineno - 2]
        if prev.lstrip().startswith("#"):
            out |= parse_directives(prev)
    return out


class AnalysisEngine:
    """Runs a rule set over files, honoring inline suppressions.

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
        self.suppressed: List[Finding] = []
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
        return self._filter(raw, {m.path: m.lines for m in modules})

    def _filter(self, raw: Sequence[Finding],
                lines_by_path: Dict[str, List[str]]) -> List[Finding]:
        """Apply inline suppressions; sort the survivors."""
        out: List[Finding] = []
        for f in sorted(raw, key=lambda f: (f.path, f.line, f.col, f.rule)):
            lines = lines_by_path.get(f.path, [])
            disabled = suppressed_rules_for_line(lines, f.line)
            if f.rule in disabled or "all" in disabled:
                self.suppressed.append(f)
                continue
            out.append(f)
        return out

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

    def check_file(self, path: str) -> List[Finding]:
        """Analyze one file on disk."""
        with open(path, "r", encoding="utf-8") as fh:
            return self.check_source(fh.read(), path=path)

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
