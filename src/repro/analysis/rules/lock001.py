"""LOCK001 — shared mutable state must be touched under its lock.

The serving layer (plan cache, metrics, optimizer service) and the
facade's context LRU are all mutated from many threads.  The discipline
that keeps them sound is simple and checkable:

* a class that owns a ``threading.Lock``/``RLock`` must only *write* its
  private (``self._*``) attributes inside a ``with self.<lock>:`` block
  (``__init__`` excepted — the object is not yet shared);
* a module that owns a module-level lock must only write its
  ``global``-declared names inside a ``with <lock>:`` block — and a
  *write* includes item stores (``_REGISTRY[key] = v``), attribute
  stores, and in-place container mutators (``_REGISTRY.clear()``,
  ``_QUEUE.append(...)``), not just rebinding the name: a function
  publishing into a shared module dict must hold the registry lock for
  the item store, exactly as it must for the rebind.

Reads are deliberately not flagged (many are benign racy reads of a
single reference); helper methods designed to run with the lock already
held opt out by the ``_locked`` name suffix.
"""

from __future__ import annotations

import ast
from typing import Iterator, List, Optional, Set

from ..engine import Finding, ModuleInfo, Rule, register
from ._util import is_lock_create as _is_lock_create
from ._util import self_attr

__all__ = ["LockDisciplineRule"]

#: method calls that mutate a container in place.
_MUTATORS = {
    "append", "extend", "insert", "remove", "pop", "popitem", "clear",
    "update", "add", "discard", "setdefault", "move_to_end", "sort",
    "appendleft", "popleft",
}

#: methods where unlocked writes are fine: construction/finalization
#: happens before/after the object is shared.
_EXEMPT_METHODS = {"__init__", "__new__", "__del__", "__post_init__",
                   "__getstate__", "__setstate__", "__reduce__"}


def _with_lock_names(stmt: ast.With, owner: str) -> Set[str]:
    """Lock attribute/global names acquired by one ``with`` statement.

    ``owner`` is ``"self"`` for instance locks or ``""`` for module
    globals; returns the matching attribute names / global names.
    """
    names: Set[str] = set()
    for item in stmt.items:
        expr = item.context_expr
        if owner == "self":
            attr = self_attr(expr)
            if attr is not None:
                names.add(attr)
        elif isinstance(expr, ast.Name):
            names.add(expr.id)
    return names


@register
class LockDisciplineRule(Rule):
    name = "LOCK001"
    description = (
        "private state of lock-owning classes/modules must be written "
        "inside `with <lock>:`"
    )

    # ------------------------------------------------------------------
    # Entry point
    # ------------------------------------------------------------------

    def check(self, module: ModuleInfo) -> Iterator[Finding]:
        for node in module.tree.body:
            if isinstance(node, ast.ClassDef):
                yield from self._check_class(module, node)
        yield from self._check_module_globals(module)

    # ------------------------------------------------------------------
    # Class-scoped discipline
    # ------------------------------------------------------------------

    def _class_lock_attrs(self, cls: ast.ClassDef) -> Set[str]:
        locks: Set[str] = set()
        for node in ast.walk(cls):
            if isinstance(node, ast.Assign) and _is_lock_create(node.value):
                for target in node.targets:
                    attr = self_attr(target)
                    if attr is not None:
                        locks.add(attr)
            elif isinstance(node, ast.AnnAssign) and node.value is not None \
                    and _is_lock_create(node.value):
                attr = self_attr(node.target)
                if attr is not None:
                    locks.add(attr)
        return locks

    def _check_class(self, module: ModuleInfo,
                     cls: ast.ClassDef) -> Iterator[Finding]:
        locks = self._class_lock_attrs(cls)
        if not locks:
            return
        for stmt in cls.body:
            if not isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef)):
                continue
            if stmt.name in _EXEMPT_METHODS or stmt.name.endswith("_locked"):
                continue
            for child in stmt.body:
                yield from self._visit(module, child, cls.name, locks,
                                       held=False)

    def _guarded_target(self, target: ast.AST, locks: Set[str]) -> Optional[str]:
        """Attr name when ``target`` writes lock-guarded private state."""
        attr = self_attr(target)
        if attr is not None and attr.startswith("_") and attr not in locks:
            return attr
        # self._x[...] = v  and  self._x.y = v  count as writes to _x.
        if isinstance(target, (ast.Subscript, ast.Attribute)):
            inner = target.value
            attr = self_attr(inner)
            if attr is not None and attr.startswith("_") and attr not in locks:
                return attr
        return None

    def _visit(self, module: ModuleInfo, node: ast.AST, cls_name: str,
               locks: Set[str], held: bool) -> Iterator[Finding]:
        if isinstance(node, ast.With):
            now_held = held or bool(_with_lock_names(node, "self") & locks)
            for child in node.body:
                yield from self._visit(module, child, cls_name, locks, now_held)
            return
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            # Nested defs are checked lexically with the surrounding state.
            for child in node.body:
                yield from self._visit(module, child, cls_name, locks, held)
            return

        if not held:
            yield from self._flag_unlocked(module, node, cls_name, locks)

        for child in ast.iter_child_nodes(node):
            if isinstance(child, ast.stmt):
                yield from self._visit(module, child, cls_name, locks, held)
            elif isinstance(child, (ast.expr, ast.excepthandler)):
                # Statements inside comprehensions/handlers still matter.
                for sub in ast.walk(child):
                    if isinstance(sub, ast.stmt):
                        yield from self._visit(module, sub, cls_name, locks,
                                               held)

    def _flag_unlocked(self, module: ModuleInfo, node: ast.AST,
                       cls_name: str, locks: Set[str]) -> Iterator[Finding]:
        targets: List[ast.AST] = []
        if isinstance(node, ast.Assign):
            targets = list(node.targets)
        elif isinstance(node, (ast.AugAssign, ast.AnnAssign)):
            targets = [node.target]
        elif isinstance(node, ast.Delete):
            targets = list(node.targets)
        for target in targets:
            if isinstance(target, (ast.Tuple, ast.List)):
                sub_targets = list(target.elts)
            else:
                sub_targets = [target]
            for t in sub_targets:
                attr = self._guarded_target(t, locks)
                if attr is not None:
                    yield self.finding(
                        module, node,
                        f"{cls_name} owns a lock but writes self.{attr} "
                        f"outside `with self.<lock>:`",
                    )
        if isinstance(node, ast.Expr) and isinstance(node.value, ast.Call):
            func = node.value.func
            if isinstance(func, ast.Attribute) and func.attr in _MUTATORS:
                attr = self_attr(func.value)
                if attr is None and isinstance(func.value, ast.Subscript):
                    attr = self_attr(func.value.value)
                if attr is not None and attr.startswith("_") \
                        and attr not in locks:
                    yield self.finding(
                        module, node,
                        f"{cls_name} owns a lock but mutates self.{attr} "
                        f"(.{func.attr}()) outside `with self.<lock>:`",
                    )

    # ------------------------------------------------------------------
    # Module-scoped discipline
    # ------------------------------------------------------------------

    def _check_module_globals(self, module: ModuleInfo) -> Iterator[Finding]:
        mod_locks: Set[str] = set()
        for node in module.tree.body:
            if isinstance(node, ast.Assign) and _is_lock_create(node.value):
                for target in node.targets:
                    if isinstance(target, ast.Name):
                        mod_locks.add(target.id)
        if not mod_locks:
            return
        for node in module.tree.body:
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                declared: Set[str] = set()
                for sub in ast.walk(node):
                    if isinstance(sub, ast.Global):
                        declared.update(sub.names)
                if not declared:
                    continue
                for child in node.body:
                    yield from self._visit_globals(module, child, node.name,
                                                   declared, mod_locks,
                                                   held=False)

    def _visit_globals(self, module: ModuleInfo, node: ast.AST,
                       func_name: str, declared: Set[str],
                       mod_locks: Set[str], held: bool) -> Iterator[Finding]:
        if isinstance(node, ast.With):
            now_held = held or bool(_with_lock_names(node, "") & mod_locks)
            for child in node.body:
                yield from self._visit_globals(module, child, func_name,
                                               declared, mod_locks, now_held)
            return
        if not held:
            targets: List[ast.AST] = []
            if isinstance(node, ast.Assign):
                targets = list(node.targets)
            elif isinstance(node, (ast.AugAssign, ast.AnnAssign)):
                targets = [node.target]
            elif isinstance(node, ast.Delete):
                targets = list(node.targets)
            for target in targets:
                if isinstance(target, (ast.Tuple, ast.List)):
                    sub_targets = list(target.elts)
                else:
                    sub_targets = [target]
                for t in sub_targets:
                    name = self._global_store_name(t, declared)
                    if name is not None:
                        yield self.finding(
                            module, node,
                            f"{func_name}() writes module global {name!r} "
                            f"outside `with <module lock>:`",
                        )
            if isinstance(node, ast.Expr) and isinstance(node.value, ast.Call):
                func = node.value.func
                if isinstance(func, ast.Attribute) and func.attr in _MUTATORS:
                    base = func.value
                    if isinstance(base, ast.Subscript):
                        base = base.value
                    if isinstance(base, ast.Name) and base.id in declared:
                        yield self.finding(
                            module, node,
                            f"{func_name}() mutates module global "
                            f"{base.id!r} (.{func.attr}()) outside "
                            f"`with <module lock>:`",
                        )
        for child in ast.iter_child_nodes(node):
            if isinstance(child, ast.stmt):
                yield from self._visit_globals(module, child, func_name,
                                               declared, mod_locks, held)

    @staticmethod
    def _global_store_name(target: ast.AST,
                           declared: Set[str]) -> Optional[str]:
        """Declared-global name a store writes, rebinding or in place.

        ``_G = v`` rebinding, ``_G[key] = v`` item stores and
        ``_G.attr = v`` attribute stores all count: the container is the
        shared state, and an unlocked item store races exactly like an
        unlocked rebind.
        """
        if isinstance(target, ast.Name) and target.id in declared:
            return target.id
        if isinstance(target, (ast.Subscript, ast.Attribute)):
            inner = target.value
            if isinstance(inner, ast.Name) and inner.id in declared:
                return inner.id
        return None
