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
correctly offloaded code is clean by construction.  The traversal never
descends into async callees — those are separate roots with their own
check.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Dict, Iterator, List, Optional

from ..engine import Finding, ProjectRule, register

if TYPE_CHECKING:  # circular at runtime: project imports rules._util
    from ..project import FunctionInfo, ProjectInfo

__all__ = ["AsyncBlockingRule"]

#: modules whose coroutines share one latency-critical event loop.
_ASYNC_SCOPES = ("repro.cluster", "repro.serving")

_IN_PROGRESS = "<in progress>"


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
        # chain memo: qualname -> None (clean) | [qualname, ..., "kind"]
        memo: Dict[str, Optional[List[str]]] = {}
        for fn in sorted(project.functions.values(), key=lambda f: f.qualname):
            if not fn.is_async or not _in_scope(fn.module):
                continue
            yield from self._check_root(project, fn, memo)

    def _check_root(self, project: ProjectInfo, fn: FunctionInfo,
                    memo: Dict[str, Optional[List[str]]]) -> Iterator[Finding]:
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
                chain = self._blocking_chain(project, callee, memo)
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

    def _blocking_chain(self, project: ProjectInfo, qualname: str,
                        memo: Dict[str, Optional[List[str]]],
                        ) -> Optional[List[str]]:
        """Shortest-discovered chain ``[fn..., kind]`` or None if clean."""
        if qualname in memo:
            cached = memo[qualname]
            return None if cached == [_IN_PROGRESS] else cached
        memo[qualname] = [_IN_PROGRESS]  # cycle guard
        fn = project.functions.get(qualname)
        result: Optional[List[str]] = None
        if fn is not None:
            if fn.blocking:
                use = fn.blocking[0]
                result = [qualname, f"{use.kind} ({use.detail}) at "
                                    f"{fn.path}:{use.lineno}"]
            else:
                for cs in fn.calls:
                    for callee in cs.callees:
                        callee_fn = project.functions.get(callee)
                        if callee_fn is None or callee_fn.is_async:
                            continue
                        sub = self._blocking_chain(project, callee, memo)
                        if sub is not None:
                            result = [qualname] + sub
                            break
                    if result is not None:
                        break
        memo[qualname] = result
        return result
