"""ASYNC001 — no blocking primitives reachable from cluster coroutines.

The cluster gateway is a single asyncio event loop multiplexing every
in-flight query; one synchronous socket read or sleep on the loop
stalls *all* of them.  This rule walks the whole-program call graph from
every ``async def`` in ``repro.cluster``/``repro.serving`` and flags any
transitively reachable blocking primitive:

* ``time.sleep``
* file I/O (``open``, ``os.read``/``os.write``)
* socket I/O (``recv``/``sendall``/``accept``/``connect``/...)
* ``Future.result()``
* frame I/O (``protocol.read_frame``/``write_frame``)

Calls directly under ``await`` are exempt (awaiting *is* the fix), and
work pushed through ``loop.run_in_executor(...)``/``asyncio.to_thread``
never creates call-graph edges (the callable is passed, not called), so
correctly offloaded code is clean by construction.  The walk
(:meth:`~repro.analysis.project.ProjectInfo.reachable`) never descends
into async callees — those are separate roots with their own check —
and a finding's chain is read back along its parent links.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Iterator, List, Optional

from ..engine import Finding, ProjectRule, register

if TYPE_CHECKING:  # circular at runtime: project imports rules._util
    from ..project import FunctionInfo, ProjectInfo

__all__ = ["AsyncBlockingRule"]

#: modules whose coroutines share one latency-critical event loop.
_ASYNC_SCOPES = ("repro.cluster", "repro.serving")


def _in_scope(module: str) -> bool:
    return any(
        module == scope or module.startswith(scope + ".")
        for scope in _ASYNC_SCOPES
    )


@register
class AsyncBlockingRule(ProjectRule):
    name = "ASYNC001"
    description = (
        "no blocking primitive may be transitively reachable from an "
        "async def in repro.cluster/repro.serving"
    )

    def check_project(self, project: ProjectInfo) -> Iterator[Finding]:
        for fn in sorted(project.functions.values(), key=lambda f: f.qualname):
            if not fn.is_async or not _in_scope(fn.module):
                continue
            yield from self._check_root(project, fn)

    def _check_root(self, project: ProjectInfo,
                    fn: FunctionInfo) -> Iterator[Finding]:
        for use in fn.blocking:
            yield self.finding_loc(
                fn.path, use.lineno, use.col,
                f"coroutine {fn.qualname} invokes blocking {use.kind} "
                f"({use.detail}) on the event loop; await it, or offload "
                f"via loop.run_in_executor / asyncio.to_thread",
            )
        for cs in fn.calls:
            for callee in cs.callees:
                callee_fn = project.functions.get(callee)
                if callee_fn is None or callee_fn.is_async:
                    continue
                chain = _blocking_chain(project, callee)
                if chain is not None:
                    via = " -> ".join([fn.qualname] + chain[:-1])
                    yield self.finding_loc(
                        fn.path, cs.lineno, cs.col,
                        f"coroutine {fn.qualname} reaches blocking "
                        f"{chain[-1]} through sync call chain {via}; "
                        f"offload via loop.run_in_executor / "
                        f"asyncio.to_thread",
                    )
                    break  # one finding per call site is enough


def _blocking_chain(project: ProjectInfo,
                    qualname: str) -> Optional[List[str]]:
    """``[qualname, ..., blocker, "kind (detail) at path:line"]`` or None.

    The blocker is the first blocking function the walk from
    ``qualname`` reaches; the chain follows its parent links back.
    """
    parents = project.reachable(qualname)
    for q in parents:
        fn = project.functions.get(q)
        if fn is None or not fn.blocking:
            continue
        use = fn.blocking[0]
        chain = [f"{use.kind} ({use.detail}) at {fn.path}:{use.lineno}"]
        cur: Optional[str] = q
        while cur is not None:
            chain.append(cur)
            cur = parents[cur]
        return chain[::-1]
    return None
