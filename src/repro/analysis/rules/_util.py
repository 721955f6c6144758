"""Small AST helpers shared by the optlint rules.

Besides the generic tree walkers, this module hosts the *summary
primitives* of two invariants: what counts as creating a lock (shared
by LOCK001 and the whole-program layer, :mod:`repro.analysis.project`,
so LOCK001 and LOCK002 never disagree about which attributes are
locks), and what counts as a version bump or a statistics mutation
(VER001).
"""

from __future__ import annotations

import ast
from typing import List, Optional, Set

__all__ = [
    "dotted_name",
    "self_attr",
    "root_name",
    "enclosing_class",
    "LOCK_FACTORIES",
    "is_lock_create",
    "VERSIONED_CLASSES",
    "STATS_FIELDS",
    "STATS_MUTATORS",
    "bumps_version",
    "first_self_mutation",
    "first_stats_field_mutation",
]


def dotted_name(node: ast.AST) -> Optional[str]:
    """``a.b.c`` for Name/Attribute chains, else None."""
    parts = []
    cur = node
    while isinstance(cur, ast.Attribute):
        parts.append(cur.attr)
        cur = cur.value
    if isinstance(cur, ast.Name):
        parts.append(cur.id)
        return ".".join(reversed(parts))
    return None


def self_attr(node: ast.AST) -> Optional[str]:
    """Attribute name when ``node`` is exactly ``self.<attr>``."""
    if (
        isinstance(node, ast.Attribute)
        and isinstance(node.value, ast.Name)
        and node.value.id == "self"
    ):
        return node.attr
    return None


def root_name(node: ast.AST) -> Optional[str]:
    """The base identifier of an attribute/subscript/call chain.

    ``self._entries[key].foo`` → ``"self"``; ``stats.histograms`` →
    ``"stats"``.  Calls are traversed through their function expression,
    so ``self.table_stats(t).histograms`` also roots at ``"self"``.
    """
    cur = node
    while True:
        if isinstance(cur, ast.Attribute):
            cur = cur.value
        elif isinstance(cur, ast.Subscript):
            cur = cur.value
        elif isinstance(cur, ast.Call):
            cur = cur.func
        elif isinstance(cur, ast.Name):
            return cur.id
        else:
            return None


def enclosing_class(module, node: ast.AST) -> Optional[ast.ClassDef]:
    """The nearest ClassDef ancestor of ``node``, if any."""
    for anc in module.ancestors(node):
        if isinstance(anc, ast.ClassDef):
            return anc
    return None


# ----------------------------------------------------------------------
# Lock summaries (shared by LOCK001, LOCK002 and the project layer)
# ----------------------------------------------------------------------

#: factories whose result is treated as a lock object, under any dotted
#: spelling (``threading.Lock()``, ``multiprocessing.Lock()``, ``Lock()``).
LOCK_FACTORIES = {"Lock", "RLock", "Condition", "Semaphore", "BoundedSemaphore"}


def is_lock_create(node: ast.AST) -> bool:
    """True when ``node`` is a call to a known lock factory."""
    if not isinstance(node, ast.Call):
        return False
    name = dotted_name(node.func)
    return name is not None and name.split(".")[-1] in LOCK_FACTORIES


# ----------------------------------------------------------------------
# Version-fence summaries (VER001)
# ----------------------------------------------------------------------

#: classes whose ``version`` is a cache-invalidation fence.
VERSIONED_CLASSES = {"StatisticsCatalog", "SelectivityFeedback"}

#: mutable statistics fields tracked outside the versioned classes.
STATS_FIELDS = {"histograms", "n_distinct", "size_distribution"}

#: in-place container mutators that count as statistics edits.
STATS_MUTATORS = {"append", "extend", "update", "clear", "pop", "popitem",
                  "setdefault", "insert", "remove", "add", "discard"}


def bumps_version(func: ast.AST) -> bool:
    """True if the function body contains a version bump."""
    for node in ast.walk(func):
        if isinstance(node, (ast.Assign, ast.AugAssign)):
            targets = node.targets if isinstance(node, ast.Assign) \
                else [node.target]
            for t in targets:
                if isinstance(t, ast.Attribute) and \
                        t.attr in ("_version", "version"):
                    return True
        if isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute):
            if node.func.attr == "bump_version":
                return True
    return False


def _is_version_target(target: ast.AST) -> bool:
    return self_attr(target) in ("_version", "version")


def first_self_mutation(func: ast.AST) -> Optional[ast.AST]:
    """First statement mutating ``self``-reachable state, if any.

    Locals assigned from ``self``-rooted expressions are tracked so
    ``stats = self.table_stats(t); stats.histograms[c] = h`` counts.
    """
    derived: Set[str] = {"self"}
    for node in ast.walk(func):
        if isinstance(node, ast.Assign):
            rooted = root_name(node.value)
            if rooted in derived:
                for t in node.targets:
                    if isinstance(t, ast.Name):
                        derived.add(t.id)
    for node in ast.walk(func):
        targets: List[ast.AST] = []
        if isinstance(node, ast.Assign):
            targets = list(node.targets)
        elif isinstance(node, (ast.AugAssign, ast.AnnAssign)):
            targets = [node.target]
        elif isinstance(node, ast.Delete):
            targets = list(node.targets)
        for t in targets:
            if isinstance(t, (ast.Attribute, ast.Subscript)):
                if _is_version_target(t):
                    continue
                if root_name(t) in derived:
                    return node
        if isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute):
            if node.func.attr in STATS_MUTATORS and \
                    root_name(node.func.value) in derived:
                return node
    return None


def first_stats_field_mutation(func: ast.AST) -> Optional[ast.AST]:
    """First statement writing a known statistics field, if any."""
    for node in ast.walk(func):
        targets: List[ast.AST] = []
        if isinstance(node, ast.Assign):
            targets = list(node.targets)
        elif isinstance(node, (ast.AugAssign, ast.AnnAssign)):
            targets = [node.target]
        for t in targets:
            # x.size_distribution = ...   (direct field store)
            if isinstance(t, ast.Attribute) and t.attr in STATS_FIELDS:
                if not (isinstance(t.value, ast.Name)
                        and t.value.id == "self"):
                    return node
            # x.histograms[c] = ...       (keyed store into a field)
            if isinstance(t, ast.Subscript) and \
                    isinstance(t.value, ast.Attribute) and \
                    t.value.attr in STATS_FIELDS:
                return node
        # x.histograms.update(...) etc.   (in-place mutator call)
        if isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute):
            if node.func.attr in STATS_MUTATORS and \
                    isinstance(node.func.value, ast.Attribute) and \
                    node.func.value.attr in STATS_FIELDS:
                return node
    return None
