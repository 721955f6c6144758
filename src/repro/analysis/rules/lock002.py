"""LOCK002 — interprocedural lock-order discipline for the serving tiers.

The serving and cluster tiers hold several in-process ``threading``
locks (the plan tier's lock, the service's pending lock, the metrics
locks), and one whole-program invariant keeps them sane: **no
cycles** in the lock-acquisition graph — if some path acquires ``A``
then ``B`` and another acquires ``B`` then ``A``, two threads can
deadlock.

Edges come from :class:`~repro.analysis.project.ProjectInfo` summaries:
locks held at an acquisition site (``with a: with b:``), plus locks held
at a call site crossed with everything the callee transitively acquires
(:meth:`~repro.analysis.project.ProjectInfo.transitive_acquires`).
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Dict, Iterator, List, Set, Tuple

from ..engine import Finding, ProjectRule, register

if TYPE_CHECKING:  # circular at runtime: project imports rules._util
    from ..project import ProjectInfo

__all__ = ["LockOrderRule"]


class _Edge:
    """One ``held -> acquired`` observation with its provenance."""

    __slots__ = ("src", "dst", "path", "lineno", "col", "via")

    def __init__(self, src: str, dst: str, path: str,
                 lineno: int, col: int, via: str) -> None:
        self.src = src
        self.dst = dst
        self.path = path
        self.lineno = lineno
        self.col = col
        self.via = via


@register
class LockOrderRule(ProjectRule):
    name = "LOCK002"
    description = "no lock-order cycles across the whole program"

    def check_project(self, project: ProjectInfo) -> Iterator[Finding]:
        edges = self._collect_edges(project)

        # Lock-order cycles: edge a->b with some path b ~> a.
        graph: Dict[str, Set[str]] = {}
        for edge in edges:
            graph.setdefault(edge.src, set()).add(edge.dst)
        reported: Set[Tuple[str, str]] = set()
        for edge in edges:
            pair = (min(edge.src, edge.dst), max(edge.src, edge.dst))
            if edge.src == edge.dst or pair in reported:
                continue
            if self._reachable(graph, edge.dst, edge.src):
                reported.add(pair)
                yield self.finding_loc(
                    edge.path, edge.lineno, edge.col,
                    f"lock-order cycle: {edge.via} acquires {edge.dst} "
                    f"while holding {edge.src}, but another path acquires "
                    f"{edge.src} while holding {edge.dst}",
                )

    # ------------------------------------------------------------------
    # Graph construction
    # ------------------------------------------------------------------

    def _collect_edges(self, project: ProjectInfo) -> List[_Edge]:
        edges: List[_Edge] = []
        for fn in sorted(project.functions.values(), key=lambda f: f.qualname):
            for lu in fn.acquires:
                for held in lu.held:
                    if held == lu.domain:
                        continue
                    edges.append(_Edge(
                        src=held, dst=lu.domain,
                        path=fn.path, lineno=lu.lineno, col=lu.col,
                        via=fn.qualname,
                    ))
            for cs in fn.calls:
                if not cs.held:
                    continue
                for callee in cs.callees:
                    for domain in sorted(project.transitive_acquires(callee)):
                        for held in cs.held:
                            if held == domain:
                                continue
                            edges.append(_Edge(
                                src=held, dst=domain,
                                path=fn.path, lineno=cs.lineno, col=cs.col,
                                via=f"{fn.qualname} (via {callee})",
                            ))
        return edges

    @staticmethod
    def _reachable(graph: Dict[str, Set[str]], src: str, dst: str) -> bool:
        seen: Set[str] = set()
        stack = [src]
        while stack:
            cur = stack.pop()
            if cur == dst:
                return True
            if cur in seen:
                continue
            seen.add(cur)
            stack.extend(graph.get(cur, ()))
        return False
