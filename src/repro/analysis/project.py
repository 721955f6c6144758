"""Whole-program facts for project-scoped optlint rules.

The per-module rules (LOCK001, VER001, ...) see one file at a time, so
the invariants most likely to take down the *cluster* tier — a blocking
socket read on the asyncio event loop, a lock-order cycle spanning
``serving`` and ``cluster``, a wire ``kind`` one side of the codec does
not know — are invisible to them.  This module builds the missing
global view:

* :func:`module_name_for_path` + per-module import maps give
  **module-qualified symbol resolution** (``protocol.read_frame`` seen
  in ``gateway.py`` resolves to ``repro.cluster.protocol.read_frame``).
* :class:`ClassInfo` carries **candidate attribute types** gathered
  from annotations (of the attribute, or of the parameter assigned to
  it) and direct construction, plus which attributes are locks.
* :class:`FunctionInfo` is one function's **summary**: is it async,
  which locks it acquires (and what was held at each acquire), which
  blocking primitives it invokes, and every call site with its resolved
  candidate callees and the locks held around it.
* :class:`ProjectInfo` ties the summaries into a **call graph**:
  :meth:`ProjectInfo.reachable` is the one walk over it, read by
  ASYNC001 for blocking chains and by
  :meth:`ProjectInfo.transitive_acquires` for interprocedural lock
  reasoning.

Everything here is deliberately *candidate-set* analysis: an attribute
may resolve to several classes, a call to several functions.  Rules
treat the union as reachable — sound enough to catch the real cluster
bugs, cheap enough to run on every CI push.
"""

from __future__ import annotations

import ast
import os
from dataclasses import dataclass, field
from typing import Dict, Iterable, Iterator, List, Optional, Sequence, Set, Tuple

from .engine import ModuleInfo
from .rules._util import dotted_name, is_lock_create

__all__ = [
    "module_name_for_path",
    "BlockingUse",
    "LockUse",
    "CallSite",
    "FunctionInfo",
    "ClassInfo",
    "ModuleRecord",
    "ProjectInfo",
]

#: typing names that never name a concrete project class.
_TYPING_NAMES = {
    "Optional", "Union", "List", "Dict", "Set", "Tuple", "Sequence",
    "Iterable", "Iterator", "Any", "Callable", "Type", "FrozenSet",
    "Mapping", "MutableMapping", "Deque", "NamedTuple", "None", "bool",
    "int", "float", "str", "bytes", "object",
}

#: socket methods that perform real I/O when called on a socket-ish object.
_SOCKET_METHODS = {
    "recv", "recv_into", "recvfrom", "sendall", "sendto", "accept",
    "connect", "makefile",
}


def module_name_for_path(path: str) -> str:
    """Dotted module name for a source path.

    Path components after the last ``src`` segment form the package
    path (``src/repro/cluster/gateway.py`` → ``repro.cluster.gateway``);
    without a ``src`` anchor the whole relative path is used, and a bare
    filename falls back to its stem.  ``__init__`` maps to its package.
    """
    norm = path.replace(os.sep, "/").replace("\\", "/")
    parts = [p for p in norm.split("/") if p not in ("", ".", "..")]
    if parts and parts[-1].endswith(".py"):
        parts[-1] = parts[-1][:-3]
    if "src" in parts:
        last_src = len(parts) - 1 - parts[::-1].index("src")
        parts = parts[last_src + 1:]
    if parts and parts[-1] == "__init__":
        parts = parts[:-1]
    return ".".join(parts) if parts else "<module>"


def _expr_text(node: ast.AST) -> str:
    """Best-effort source text of an expression (for hints/messages)."""
    try:
        return ast.unparse(node)  # type: ignore[attr-defined]
    except Exception:  # pragma: no cover - unparse failures are cosmetic
        return ""


def _walk_shallow(root: ast.AST) -> Iterable[ast.AST]:
    """Walk a subtree without descending into nested lambdas/defs.

    The root itself is always descended into (callers pass the function
    being summarized); only *nested* function scopes are opaque.
    """
    yield root
    stack: List[ast.AST] = list(ast.iter_child_nodes(root))
    while stack:
        cur = stack.pop()
        yield cur
        if isinstance(cur, (ast.Lambda, ast.FunctionDef, ast.AsyncFunctionDef)):
            continue
        stack.extend(ast.iter_child_nodes(cur))


@dataclass(frozen=True)
class BlockingUse:
    """One invocation of a primitive that can block the event loop."""

    kind: str  # "time.sleep" | "file-io" | "socket" | "future-result"
    #            | "frame-io"
    detail: str
    lineno: int
    col: int


@dataclass(frozen=True)
class LockUse:
    """One lock acquisition, with the domains already held around it."""

    domain: str  # e.g. "repro.serving.plan_cache.PlanCache._lock"
    lineno: int
    col: int
    held: Tuple[str, ...] = ()


@dataclass(frozen=True)
class CallSite:
    """One call expression with its resolved candidate callees."""

    text: str
    resolved: Optional[str]  # absolute dotted target, project or not
    callees: Tuple[str, ...]  # qualnames of candidate project functions
    lineno: int
    col: int
    held: Tuple[str, ...] = ()  # lock domains held at the call


@dataclass
class FunctionInfo:
    """Summary of one function or method."""

    qualname: str
    module: str
    name: str
    cls: Optional[str]  # owning class qualname, if a method
    path: str
    node: ast.AST
    is_async: bool = False
    calls: List[CallSite] = field(default_factory=list)
    blocking: List[BlockingUse] = field(default_factory=list)
    acquires: List[LockUse] = field(default_factory=list)


@dataclass
class ClassInfo:
    """Summary of one class: methods, attribute types, lock fields."""

    qualname: str
    module: str
    name: str
    node: ast.ClassDef
    bases: List[str] = field(default_factory=list)
    methods: Dict[str, str] = field(default_factory=dict)
    attr_types: Dict[str, Set[str]] = field(default_factory=dict)
    lock_attrs: Set[str] = field(default_factory=set)


@dataclass
class ModuleRecord:
    """One parsed module plus its resolution context."""

    name: str
    info: ModuleInfo
    imports: Dict[str, str] = field(default_factory=dict)
    classes: Dict[str, ClassInfo] = field(default_factory=dict)
    functions: Dict[str, str] = field(default_factory=dict)  # name -> qualname
    module_locks: Set[str] = field(default_factory=set)


@dataclass
class _FuncCtx:
    """Resolution context while summarizing one function."""

    record: ModuleRecord
    cls: Optional[ClassInfo]
    local_types: Dict[str, Set[str]]


class ProjectInfo:
    """The whole-program view project-scoped rules check against."""

    def __init__(self) -> None:
        self.modules: Dict[str, ModuleRecord] = {}
        self.functions: Dict[str, FunctionInfo] = {}
        self.classes: Dict[str, ClassInfo] = {}
        self._reach_memo: Dict[str, Dict[str, Optional[str]]] = {}

    # ------------------------------------------------------------------
    # Construction
    # ------------------------------------------------------------------

    @classmethod
    def build(cls, infos: Sequence[ModuleInfo]) -> "ProjectInfo":
        """Build the project view over a set of parsed modules."""
        project = cls()
        for info in infos:
            name = module_name_for_path(info.path)
            record = ModuleRecord(name=name, info=info)
            record.imports = _collect_imports(info.tree, name)
            project.modules[name] = record
        for record in project.modules.values():
            project._collect_definitions(record)
        for record in project.modules.values():
            project._seed_attr_types(record)
        for record in project.modules.values():
            project._summarize_module(record)
        return project

    def _collect_definitions(self, record: ModuleRecord) -> None:
        """Pass A: classes, methods, top-level functions, module locks."""
        for node in record.info.tree.body:
            if isinstance(node, ast.ClassDef):
                qual = f"{record.name}.{node.name}"
                cinfo = ClassInfo(qualname=qual, module=record.name,
                                  name=node.name, node=node)
                for base in node.bases:
                    text = dotted_name(base)
                    if text is not None:
                        resolved = self.resolve(record.name, text)
                        if resolved is not None:
                            cinfo.bases.append(resolved)
                for stmt in node.body:
                    if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef)):
                        cinfo.methods[stmt.name] = f"{qual}.{stmt.name}"
                record.classes[node.name] = cinfo
                self.classes[qual] = cinfo
                self._register_functions(record, node, prefix=qual, cls=cinfo)
            elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                qual = f"{record.name}.{node.name}"
                record.functions[node.name] = qual
                self._register_function(record, node, qual, cls=None)
                self._register_functions(record, node, prefix=qual, cls=None)
            elif isinstance(node, ast.Assign) and is_lock_create(node.value):
                for target in node.targets:
                    if isinstance(target, ast.Name):
                        record.module_locks.add(target.id)

    def _register_functions(self, record: ModuleRecord, root: ast.AST,
                            prefix: str, cls: Optional[ClassInfo]) -> None:
        """Register nested defs (and methods, when root is a class)."""
        for stmt in ast.iter_child_nodes(root):
            if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef)):
                qual = f"{prefix}.{stmt.name}"
                self._register_function(record, stmt, qual, cls=cls)
                self._register_functions(record, stmt, prefix=qual, cls=cls)
            elif isinstance(stmt, (ast.If, ast.Try, ast.With, ast.For,
                                   ast.While, ast.AsyncWith, ast.AsyncFor)):
                self._register_functions(record, stmt, prefix=prefix, cls=cls)

    def _register_function(self, record: ModuleRecord, node: ast.AST,
                           qualname: str, cls: Optional[ClassInfo]) -> None:
        assert isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
        self.functions[qualname] = FunctionInfo(
            qualname=qualname,
            module=record.name,
            name=node.name,
            cls=cls.qualname if cls is not None else None,
            path=record.info.path,
            node=node,
            is_async=isinstance(node, ast.AsyncFunctionDef),
        )

    # ------------------------------------------------------------------
    # Symbol resolution
    # ------------------------------------------------------------------

    def resolve(self, module: str, dotted: str) -> Optional[str]:
        """Absolute dotted target of a name as seen from ``module``.

        Returns an absolute string even for non-project targets (so
        ``time.sleep`` stays matchable against the blocking registry);
        ``None`` when the head is not an import or module-level symbol.
        """
        record = self.modules.get(module)
        if record is None:
            return None
        parts = dotted.split(".")
        head = parts[0]
        target = record.imports.get(head)
        if target is not None:
            return ".".join([target] + parts[1:])
        if head in record.classes or head in record.functions:
            return f"{module}.{dotted}"
        return None

    # ------------------------------------------------------------------
    # Type candidates
    # ------------------------------------------------------------------

    def _annotation_types(self, record: ModuleRecord,
                          annotation: Optional[ast.AST]) -> Set[str]:
        """Project classes named anywhere inside a type annotation."""
        out: Set[str] = set()
        if annotation is None:
            return out
        for node in ast.walk(annotation):
            text: Optional[str] = None
            if isinstance(node, ast.Name):
                if node.id in _TYPING_NAMES:
                    continue
                text = node.id
            elif isinstance(node, ast.Attribute):
                text = dotted_name(node)
            if text is None:
                continue
            resolved = self.resolve(record.name, text)
            if resolved is not None and resolved in self.classes:
                out.add(resolved)
        return out

    def _param_types(self, record: ModuleRecord,
                     func: ast.AST) -> Dict[str, Set[str]]:
        assert isinstance(func, (ast.FunctionDef, ast.AsyncFunctionDef))
        out: Dict[str, Set[str]] = {}
        args = func.args
        for arg in args.posonlyargs + args.args + args.kwonlyargs:
            types = self._annotation_types(record, arg.annotation)
            if types:
                out[arg.arg] = types
        return out

    def _function_local_types(self, record: ModuleRecord,
                              func: ast.AST) -> Dict[str, Set[str]]:
        """Candidate types of a function's locals (params + constructions)."""
        out = self._param_types(record, func)
        for node in _walk_shallow(func):
            value: Optional[ast.AST] = None
            targets: List[ast.AST] = []
            if isinstance(node, ast.Assign):
                value, targets = node.value, list(node.targets)
            elif isinstance(node, ast.AnnAssign) and node.value is not None:
                value, targets = node.value, [node.target]
            elif isinstance(node, (ast.With, ast.AsyncWith)):
                for item in node.items:
                    if item.optional_vars is not None:
                        types = self._ctor_types(record, item.context_expr)
                        if types and isinstance(item.optional_vars, ast.Name):
                            out.setdefault(
                                item.optional_vars.id, set()
                            ).update(types)
                continue
            if value is None:
                continue
            types = self._ctor_types(record, value)
            if not types:
                continue
            for t in targets:
                if isinstance(t, ast.Name):
                    out.setdefault(t.id, set()).update(types)
        return out

    def _ctor_types(self, record: ModuleRecord,
                    value: ast.AST) -> Set[str]:
        """Classes directly constructed by a value expression."""
        if isinstance(value, ast.Call):
            text = dotted_name(value.func)
            if text is not None:
                resolved = self.resolve(record.name, text)
                if resolved is not None and resolved in self.classes:
                    return {resolved}
        if isinstance(value, ast.IfExp):
            return (self._ctor_types(record, value.body)
                    | self._ctor_types(record, value.orelse))
        if isinstance(value, ast.Await):
            return self._ctor_types(record, value.value)
        return set()

    def expr_types(self, ctx: _FuncCtx, node: ast.AST) -> Set[str]:
        """Candidate project-class types of an arbitrary expression."""
        if isinstance(node, ast.Name):
            if node.id == "self" and ctx.cls is not None:
                return {ctx.cls.qualname}
            return set(ctx.local_types.get(node.id, set()))
        if isinstance(node, ast.Attribute):
            out: Set[str] = set()
            for t in self.expr_types(ctx, node.value):
                cinfo = self.classes.get(t)
                if cinfo is not None:
                    out |= cinfo.attr_types.get(node.attr, set())
            return out
        if isinstance(node, ast.Call):
            return self._ctor_types(ctx.record, node)
        if isinstance(node, ast.IfExp):
            return (self.expr_types(ctx, node.body)
                    | self.expr_types(ctx, node.orelse))
        if isinstance(node, ast.Await):
            return self.expr_types(ctx, node.value)
        return set()

    # ------------------------------------------------------------------
    # Attribute-type seeding (pass B)
    # ------------------------------------------------------------------

    def _seed_attr_types(self, record: ModuleRecord) -> None:
        for cinfo in record.classes.values():
            for stmt in cinfo.node.body:
                if isinstance(stmt, ast.AnnAssign) and \
                        isinstance(stmt.target, ast.Name):
                    types = self._annotation_types(record, stmt.annotation)
                    if types:
                        cinfo.attr_types.setdefault(
                            stmt.target.id, set()
                        ).update(types)
            for method_name in cinfo.methods:
                method = self._method_node(cinfo, method_name)
                if method is None:
                    continue
                self._seed_from_method(record, cinfo, method)

    def _method_node(self, cinfo: ClassInfo,
                     name: str) -> Optional[ast.AST]:
        for stmt in cinfo.node.body:
            if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef)) \
                    and stmt.name == name:
                return stmt
        return None

    def _seed_from_method(self, record: ModuleRecord, cinfo: ClassInfo,
                          method: ast.AST) -> None:
        param_types = self._param_types(record, method)
        for node in _walk_shallow(method):
            value: Optional[ast.AST] = None
            target: Optional[ast.AST] = None
            annotation: Optional[ast.AST] = None
            if isinstance(node, ast.Assign) and len(node.targets) == 1:
                value, target = node.value, node.targets[0]
            elif isinstance(node, ast.AnnAssign):
                value, target, annotation = node.value, node.target, \
                    node.annotation
            if target is None or not (
                isinstance(target, ast.Attribute)
                and isinstance(target.value, ast.Name)
                and target.value.id == "self"
            ):
                continue
            attr = target.attr
            types = self._annotation_types(record, annotation)
            if value is not None:
                types |= self._ctor_types(record, value)
                if isinstance(value, ast.Name):
                    types |= param_types.get(value.id, set())
                if isinstance(value, ast.IfExp):
                    for branch in (value.body, value.orelse):
                        if isinstance(branch, ast.Name):
                            types |= param_types.get(branch.id, set())
                if is_lock_create(value):
                    cinfo.lock_attrs.add(attr)
            if types:
                cinfo.attr_types.setdefault(attr, set()).update(types)

    # ------------------------------------------------------------------
    # Function summaries (pass C)
    # ------------------------------------------------------------------

    def _summarize_module(self, record: ModuleRecord) -> None:
        for fn in self.functions.values():
            if fn.module != record.name:
                continue
            cls = self.classes.get(fn.cls) if fn.cls is not None else None
            ctx = _FuncCtx(
                record=record,
                cls=cls,
                local_types=self._function_local_types(record, fn.node),
            )
            visitor = _SummaryVisitor(self, ctx, fn)
            assert isinstance(fn.node, (ast.FunctionDef, ast.AsyncFunctionDef))
            visitor.run(fn.node.body)

    # ------------------------------------------------------------------
    # Lock / call graph queries
    # ------------------------------------------------------------------

    def lock_domain(self, ctx: _FuncCtx, expr: ast.AST) -> Optional[str]:
        """The lock domain an expression names, if it names a known lock."""
        if isinstance(expr, ast.Attribute):
            for t in self.expr_types(ctx, expr.value):
                cinfo = self.classes.get(t)
                if cinfo is not None and expr.attr in cinfo.lock_attrs:
                    return f"{t}.{expr.attr}"
        if isinstance(expr, ast.Name) and expr.id in ctx.record.module_locks:
            return f"{ctx.record.name}.{expr.id}"
        return None

    def method_candidates(self, cls_qualname: str, method: str,
                          _seen: Optional[Set[str]] = None) -> List[str]:
        """Candidate qualnames of ``method`` on a class or its bases."""
        seen = _seen if _seen is not None else set()
        if cls_qualname in seen:
            return []
        seen.add(cls_qualname)
        cinfo = self.classes.get(cls_qualname)
        if cinfo is None:
            return []
        if method in cinfo.methods:
            return [cinfo.methods[method]]
        out: List[str] = []
        for base in cinfo.bases:
            out.extend(self.method_candidates(base, method, seen))
        return out

    def reachable(self, qualname: str) -> Dict[str, Optional[str]]:
        """Sync functions reachable from ``qualname`` through its calls.

        Each maps to the caller it was first reached from (``qualname``
        itself to ``None``), in depth-first preorder.  Async callees are
        not entered: calling one only builds a coroutine.  A walk is
        memoized once it is complete, never part-way through a call
        cycle, so the answer does not depend on the order of queries.
        """
        memo = self._reach_memo.get(qualname)
        if memo is not None:
            return memo
        parents: Dict[str, Optional[str]] = {qualname: None}
        stack = [(qualname, self._sync_callees(qualname))]
        while stack:
            caller, callees = stack[-1]
            for callee in callees:
                if callee not in parents:
                    parents[callee] = caller
                    stack.append((callee, self._sync_callees(callee)))
                    break
            else:
                stack.pop()
        self._reach_memo[qualname] = parents
        return parents

    def _sync_callees(self, qualname: str) -> Iterator[str]:
        fn = self.functions.get(qualname)
        for cs in fn.calls if fn is not None else ():
            for callee in cs.callees:
                callee_fn = self.functions.get(callee)
                if callee_fn is not None and not callee_fn.is_async:
                    yield callee

    def transitive_acquires(self, qualname: str) -> Set[str]:
        """Every lock domain reachable through ``qualname``'s sync calls."""
        return {
            lu.domain
            for q in self.reachable(qualname)
            if q in self.functions
            for lu in self.functions[q].acquires
        }


def _collect_imports(tree: ast.Module, module_name: str) -> Dict[str, str]:
    imports: Dict[str, str] = {}
    pkg_parts = module_name.split(".")[:-1]
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                if alias.asname is not None:
                    imports[alias.asname] = alias.name
                else:
                    head = alias.name.split(".")[0]
                    imports[head] = head
        elif isinstance(node, ast.ImportFrom):
            if node.level:
                keep = len(pkg_parts) - (node.level - 1)
                base = ".".join(pkg_parts[:keep]) if keep > 0 else ""
                if node.module:
                    base = f"{base}.{node.module}" if base else node.module
            else:
                base = node.module or ""
            for alias in node.names:
                if alias.name == "*":
                    continue
                local = alias.asname or alias.name
                imports[local] = f"{base}.{alias.name}" if base else alias.name
    return imports


class _SummaryVisitor:
    """Sequential statement walker building one function's summary.

    Tracks the set of held lock domains through ``with`` blocks, the
    only acquisition form LOCK001 accepts (an intraprocedural
    approximation: a lock acquired via a helper function is *not*
    considered held afterwards).
    """

    def __init__(self, project: ProjectInfo, ctx: _FuncCtx,
                 fn: FunctionInfo) -> None:
        self.project = project
        self.ctx = ctx
        self.fn = fn
        self.held: List[str] = []

    # -- statements ----------------------------------------------------

    def run(self, body: Sequence[ast.stmt]) -> None:
        for stmt in body:
            self._visit_stmt(stmt)

    def _visit_stmt(self, stmt: ast.stmt) -> None:
        if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef)):
            return  # nested defs are summarized separately
        if isinstance(stmt, (ast.With, ast.AsyncWith)):
            acquired: List[str] = []
            for item in stmt.items:
                self._scan_expr(item.context_expr)
                domain = self.project.lock_domain(self.ctx, item.context_expr)
                if domain is not None:
                    self.fn.acquires.append(LockUse(
                        domain=domain,
                        lineno=item.context_expr.lineno,
                        col=item.context_expr.col_offset,
                        held=tuple(self.held),
                    ))
                    acquired.append(domain)
            self.held.extend(acquired)
            self.run(stmt.body)
            for _ in acquired:
                self.held.pop()
            return
        if isinstance(stmt, (ast.If, ast.While)):
            self._scan_expr(stmt.test)
            self.run(stmt.body)
            self.run(stmt.orelse)
            return
        if isinstance(stmt, (ast.For, ast.AsyncFor)):
            self._scan_expr(stmt.iter)
            self.run(stmt.body)
            self.run(stmt.orelse)
            return
        if isinstance(stmt, ast.Try):
            self.run(stmt.body)
            for handler in stmt.handlers:
                self.run(handler.body)
            self.run(stmt.orelse)
            self.run(stmt.finalbody)
            return
        if isinstance(stmt, ast.ClassDef):
            return
        for child in ast.iter_child_nodes(stmt):
            if isinstance(child, ast.expr):
                self._scan_expr(child)

    # -- expressions ---------------------------------------------------

    def _scan_expr(self, expr: ast.AST) -> None:
        for node in _walk_shallow(expr):
            if isinstance(node, ast.Call):
                self._handle_call(node)

    def _awaited(self, node: ast.AST) -> bool:
        return isinstance(self.ctx.record.info.parents.get(node), ast.Await)

    def _handle_call(self, node: ast.Call) -> None:
        project, ctx = self.project, self.ctx
        func = node.func
        text = dotted_name(func) or _expr_text(func)
        resolved = dotted_name(func)
        if resolved is not None:
            resolved = project.resolve(ctx.record.name, resolved)

        callees = self._callee_candidates(node, resolved)
        if callees:
            self.fn.calls.append(CallSite(
                text=text, resolved=resolved, callees=tuple(callees),
                lineno=node.lineno, col=node.col_offset,
                held=tuple(self.held),
            ))

        if not self._awaited(node):
            blocking = self._classify_blocking(node, resolved)
            if blocking is not None:
                self.fn.blocking.append(blocking)

    def _callee_candidates(self, node: ast.Call,
                           resolved: Optional[str]) -> List[str]:
        project, ctx = self.project, self.ctx
        out: List[str] = []
        func = node.func
        if resolved is not None:
            if resolved in project.functions:
                out.append(resolved)
            elif resolved in project.classes:
                init = project.classes[resolved].methods.get("__init__")
                if init is not None:
                    out.append(init)
        if isinstance(func, ast.Attribute) and not out:
            for t in project.expr_types(ctx, func.value):
                out.extend(project.method_candidates(t, func.attr))
        return sorted(set(out))

    def _classify_blocking(self, node: ast.Call,
                           resolved: Optional[str]) -> Optional[BlockingUse]:
        func = node.func
        detail = _expr_text(func)

        def use(kind: str) -> BlockingUse:
            return BlockingUse(kind=kind, detail=detail,
                               lineno=node.lineno, col=node.col_offset)

        if resolved == "time.sleep":
            return use("time.sleep")
        if resolved in ("os.read", "os.write") or (
            isinstance(func, ast.Name) and func.id == "open"
        ):
            return use("file-io")
        if isinstance(func, ast.Attribute):
            leaf = func.attr
            if leaf in _SOCKET_METHODS:
                return use("socket")
            if leaf == "result":
                return use("future-result")
        if resolved is not None and "protocol" in resolved and \
                resolved.split(".")[-1] in ("read_frame", "write_frame"):
            return use("frame-io")
        return None
