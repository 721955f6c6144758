"""The single front door: :func:`repro.optimize`, and the objective table.

The paper presents LSC and Algorithms A-D as *one* System-R dynamic
program under different costings: Theorems 2.1/3.3/3.4 differ only in
the coster, and A/B put a per-bucket candidate policy on the point
coster.  :data:`_ROWS` says so once and :func:`_run` is its only reader.
Every mode is reachable through one call::

    from repro import optimize, two_point

    result = optimize(query, objective="lec", memory=two_point(2000, 0.8, 700))
    result.plan, result.objective

and under the paper's names (:func:`optimize_lsc` …
:func:`optimize_algorithm_d`), which are rows of the same table run on
a cold private context unless one is passed.

The facade owns a small LRU of :class:`~repro.core.context.
OptimizationContext` objects, keyed by the query's statistics
fingerprint alone: every memo inside a context that a cost model can
change already names its method set (the DP skeleton's key, a level
column's key, a step key's method).  Repeated calls on the same query therefore share
memoized subset sizes, size distributions, survival tables, DP
skeletons and scalar step costs; mutating the catalog changes the
fingerprint, which transparently builds a fresh context — stale reuse
cannot happen.

Objectives and their ``memory`` requirements:

========================  ==========================================
objective                 memory argument
========================  ==========================================
``point`` / ``lsc``       a number (pages), or a distribution whose
                          mean is used (the classical baseline)
``expected`` / ``lec``    a :class:`DiscreteDistribution`, or a
                          :class:`MarkovParameter` for dynamic memory
``markov`` / ``dynamic``  a :class:`MarkovParameter`
``multiparam``            a :class:`DiscreteDistribution`; sizes and
                          selectivities also treated as distributions
``algorithm_a``           a :class:`DiscreteDistribution` (one LSC run
                          per occupied level-set cell, re-costed)
``algorithm_b``           a :class:`DiscreteDistribution` (its top-``c``
                          per occupied level-set cell, re-costed)
========================  ==========================================
"""

from __future__ import annotations

import threading
from collections import OrderedDict
from numbers import Real
from typing import Callable, Dict, List, NamedTuple, Optional, Tuple, Union

from ..core.context import OptimizationContext, query_fingerprint
from ..core.distributions import DiscreteDistribution
from ..core.markov import MarkovParameter
from ..costmodel.formulas import MIN_MEMORY_PAGES, sort_breakpoints
from ..costmodel.model import CostModel
from ..plans.query import HashedTuple, JoinQuery
from .costers import (
    Coster,
    ExpectedCoster,
    MarkovCoster,
    MultiParamCoster,
    PointCoster,
)
from .errors import MemoryTypeError, OptimizerConfigError
from .result import OptimizationResult, OptimizerStats, PlanChoice
from .systemr import SystemRDP, memory_cells, memory_edges

__all__ = [
    "optimize",
    "optimize_lsc",
    "lsc_at_mean",
    "lsc_at_mode",
    "optimize_algorithm_a",
    "optimize_algorithm_b",
    "optimize_algorithm_c",
    "optimize_algorithm_d",
    "memory_breakpoints",
    "last_context",
    "clear_context_cache",
    "canonical_objective",
    "check_memory",
    "model_key",
]

# Canonical objective names, keyed by every accepted spelling.
_OBJECTIVES = {
    "point": "point",
    "lsc": "point",
    "expected": "expected",
    "lec": "expected",
    "markov": "markov",
    "dynamic": "markov",
    "multiparam": "multiparam",
    "multi-param": "multiparam",
    "multi_param": "multiparam",
    "algorithm_a": "algorithm_a",
    "algorithm-a": "algorithm_a",
    "algorithm_b": "algorithm_b",
    "algorithm-b": "algorithm_b",
}


class _Row(NamedTuple):
    """What one objective means to the System-R engine."""

    accepts: Tuple[type, ...]  #: the ``memory=`` types it takes
    coster: Callable[..., Coster]  #: (memory, cost_model, max_buckets)
    #: Algorithms A/B only: plans kept per bucket, given ``top_k`` — one
    #: point DP per memory bucket, candidates re-scored by expected cost.
    c: Optional[Callable[[int], int]] = None


def _point(memory, cm, max_buckets) -> Coster:
    # The classical optimizer plans at one value: a distribution's mean.
    if isinstance(memory, DiscreteDistribution):
        memory = memory.mean()
    return PointCoster(memory, cm)


def _expected(memory, cm, max_buckets) -> Coster:
    # Section 3.5: dynamic memory swaps in per-phase marginals, same DP.
    if isinstance(memory, MarkovParameter):
        return MarkovCoster(memory, cm)
    return ExpectedCoster(memory, cm)


def _multiparam(memory, cm, max_buckets) -> Coster:
    return MultiParamCoster(memory, cm, max_buckets=max_buckets)


_DIST = (DiscreteDistribution,)
_ROWS: Dict[str, _Row] = {
    "point": _Row((Real, DiscreteDistribution), _point),  # Theorem 2.1
    "expected": _Row((DiscreteDistribution, MarkovParameter), _expected),  # 3.3
    "markov": _Row((MarkovParameter,), _expected),  # Theorem 3.4
    "multiparam": _Row(_DIST, _multiparam),  # Section 3.6
    "algorithm_a": _Row(_DIST, _point, c=lambda top_k: 1),  # Section 3.2
    "algorithm_b": _Row(_DIST, _point, c=lambda top_k: top_k),  # Section 3.3
}


def _run(
    kind: str,
    query: JoinQuery,
    memory,
    cost_model: Optional[CostModel] = None,
    plan_space="left-deep",
    allow_cross_products: bool = False,
    top_k: int = 1,
    max_buckets: int = 16,
    include_mean: bool = True,
    context: Optional[OptimizationContext] = None,
) -> OptimizationResult:
    """Run row ``kind``: the one place an objective becomes a DP run.

    ``context=None`` means a cold private context.  The engine rejects a
    bad ``plan_space``/``top_k`` and the coster a bad memory value.
    """
    check_memory(kind, memory)
    row = _ROWS[kind]
    cm = cost_model if cost_model is not None else CostModel()

    def dp(mem, keep: int, ctx) -> OptimizationResult:
        engine = SystemRDP(
            row.coster(mem, cm, max_buckets),
            plan_space=plan_space,
            allow_cross_products=allow_cross_products,
            top_k=keep,
            context=ctx,
        )
        return engine.optimize(query)

    if row.c is None:
        return dp(memory, top_k, context)

    # The standard optimizer as a black box, once per occupied cell of
    # the buckets — and of the mean, so the pick is never worse in
    # expectation than the classical plan — all over one context.
    if context is None:
        context = OptimizationContext(query)
    probe_points = list(memory.support())
    if include_mean and memory.mean() not in probe_points:
        probe_points.append(memory.mean())
    c = row.c(top_k)
    stats = OptimizerStats(invocations=0)
    seen: dict = {}
    cell, ran = None, set()
    for m in probe_points:
        if cell is not None and cell(m) in ran:
            continue  # an occupied cell: the same costs, so the same candidates
        result = dp(m, c, context)
        stats = stats.merged_with(result.stats)
        for choice in result.candidates:
            seen.setdefault(choice.plan.signature(), choice.plan)
        cell = cell or memory_cells(query, context, plan_space, allow_cross_products, cm)
        ran.add(cell(m))

    evals_before = cm.eval_count
    choices = [
        PlanChoice(plan, cm.plan_expected_cost(plan, query, memory, context))
        for plan in seen.values()
    ]
    choices.sort(key=lambda ch: ch.objective)
    stats.formula_evaluations += cm.eval_count - evals_before
    return OptimizationResult(best=choices[0], candidates=choices, stats=stats)


def memory_breakpoints(query: JoinQuery, cost_model: Optional[CostModel] = None,
                       plan_space="left-deep", allow_cross_products=False) -> List[float]:
    """Each memory at which the DP of ``plan_space`` may change plan for ``query``,
    ascending: :func:`~repro.optimizer.systemr.memory_edges` of the skeleton one
    uncounted LSC run records on a private context and, under a required order,
    the enforcer sort's (approximate) ``sort_breakpoints``."""
    cm = cost_model if cost_model is not None else CostModel()
    walk = OptimizationContext(query)
    uncounted = CostModel(cm.methods, False, cm.pipelined_methods)
    _run("point", query, MIN_MEMORY_PAGES, uncounted, plan_space, allow_cross_products,
         context=walk)  # any memory: what a run walks does not depend on it
    points = memory_edges(walk, query, plan_space, allow_cross_products, cm.methods)
    if query.required_order is not None:
        points += sort_breakpoints(walk.subset_pages(query.relation_names()))
    return sorted(set(points))


# LRU of contexts keyed by query fingerprint.  Small on purpose: a
# context holds every memoized distribution for its query, and the
# working set of distinct queries in one process is tiny.  The lock
# makes get/insert/evict safe under the serving layer's thread pool — OrderedDict.move_to_end/popitem are not
# atomic, so unguarded concurrent optimize() calls could corrupt the LRU.
_CONTEXT_CACHE_CAP = 8
_context_cache: "OrderedDict[Tuple, OptimizationContext]" = OrderedDict()
_context_cache_lock = threading.Lock()
_last_context: Optional[OptimizationContext] = None


def canonical_objective(name) -> str:
    """The canonical kind behind any accepted ``objective`` spelling."""
    kind = _OBJECTIVES.get(str(name).lower())
    if kind is None:
        known = ", ".join(sorted(set(_OBJECTIVES)))
        raise OptimizerConfigError(
            f"unknown objective {name!r}; expected one of: {known}"
        )
    return kind


def check_memory(kind: str, memory) -> None:
    """Raise :class:`MemoryTypeError` unless canonical objective ``kind``
    takes ``memory``'s type (the serving tiers check before dispatch)."""
    accepts = _ROWS[kind].accepts
    if not isinstance(memory, accepts):
        takes = " or ".join(t.__name__ for t in accepts)
        raise MemoryTypeError(
            f"objective {kind!r} needs memory as {takes}, "
            f"got {type(memory).__name__}"
        )


def model_key(cm: CostModel) -> Tuple:
    """The part of a cost model's configuration that can change a plan
    (kept on ``cm``, and so hashed once: its method sets are read-only)."""
    key = cm.__dict__.get("_model_key")
    if key is None:
        key = cm._model_key = HashedTuple((cm.methods, cm.pipelined_methods))
    return key


def _context_for(query: JoinQuery) -> OptimizationContext:
    """Fetch (or build) the shared context for this query.

    The key embeds every statistic the optimizer reads, so a query built
    from mutated catalog statistics maps to a different slot — the old
    context simply ages out of the LRU.  Thread-safe: two concurrent
    callers with the same key receive the same context object.
    """
    key = query_fingerprint(query)
    with _context_cache_lock:
        ctx = _context_cache.get(key)
        if ctx is not None:
            _context_cache.move_to_end(key)
            return ctx
        ctx = OptimizationContext(query)
        _context_cache[key] = ctx
        while len(_context_cache) > _CONTEXT_CACHE_CAP:
            _context_cache.popitem(last=False)
        return ctx


def last_context() -> Optional[OptimizationContext]:
    """The context used by the most recent :func:`optimize` call.

    Exposed for observability: ``optimize(...);
    last_context().stats()`` shows what the caches did.
    """
    return _last_context


def clear_context_cache() -> None:
    """Drop every cached context (e.g. between unrelated workloads)."""
    global _last_context
    with _context_cache_lock:
        _context_cache.clear()
        _last_context = None


def optimize(
    query: JoinQuery,
    objective: str = "lec",
    *,
    memory: Union[Real, DiscreteDistribution, MarkovParameter, None] = None,
    cost_model: Optional[CostModel] = None,
    plan_space: str = "left-deep",
    allow_cross_products: bool = False,
    top_k: int = 1,
    max_buckets: int = 16,
    fast: bool = False,
    context: Optional[OptimizationContext] = None,
) -> OptimizationResult:
    """Optimize ``query`` under the chosen costing objective.

    Parameters
    ----------
    query:
        The join query to optimize.
    objective:
        One of the spellings in the module table ("lec" by default).
    memory:
        Available-memory input; its required type depends on the
        objective (see the module docstring's table).
    cost_model:
        Cost model to evaluate formulas with (fresh default if omitted).
    plan_space:
        A :class:`~repro.plans.space.PlanSpace` or its spelling:
        ``"left-deep"`` (default), ``"zig-zag"``, ``"bushy"``, or
        ``"spju"`` (bushy + union blocks) — union queries
        (:class:`~repro.plans.spju.UnionQuery`) need a union-capable
        space.
    allow_cross_products:
        Passed through to the System-R engine.
    top_k:
        For ``point``/``expected``/``markov``: plans retained per dag
        node and returned in ``result.candidates``.  For
        ``algorithm_b``: the per-bucket candidate count ``c``.
    max_buckets:
        Rebucketing width of propagated size distributions (Algorithm D
        only).
    fast:
        Accepted and ignored: Algorithm D's kernel is no longer a choice.
        Kept only while the frozen benchmark harness still passes it.
    context:
        Explicit :class:`~repro.core.context.OptimizationContext` to use
        instead of the facade's cached one.  Must match the query's
        statistics or it is (safely) ignored downstream.

    Returns
    -------
    OptimizationResult
        ``result.plan`` and ``result.objective`` are the winner;
        ``result.candidates``/``result.stats`` carry mode-specific
        detail.

    Raises
    ------
    OptimizerConfigError
        Unknown objective, missing/ill-typed ``memory`` (the subclass
        :class:`MemoryTypeError`, also a ``TypeError``), or invalid
        engine settings (bad plan space, ``top_k < 1``, memory ``<= 0``).
    """
    global _last_context

    kind = canonical_objective(objective)
    cm = cost_model if cost_model is not None else CostModel()
    ctx = context if context is not None else _context_for(query)
    # Published under the cache lock: clear_context_cache() resets this
    # global concurrently, and an unguarded write could resurrect a
    # just-cleared context for observers of last_context().
    with _context_cache_lock:
        _last_context = ctx
    return _run(
        kind,
        query,
        memory,
        cost_model=cm,
        plan_space=plan_space,
        allow_cross_products=allow_cross_products,
        top_k=top_k,
        max_buckets=max_buckets,
        context=ctx,
    )


# The paper's names.  ``engine`` is any of :func:`_run`'s keyword
# arguments, with its defaults (:func:`optimize`'s but ``fast``, plus
# ``include_mean`` for Algorithms A/B), except that ``context=None`` here
# means a cold private context, not the shared one.


def optimize_lsc(query: JoinQuery, memory: float, **engine) -> OptimizationResult:
    """The LSC baseline (Theorem 2.1): System-R at one memory value.

    One invocation of the standard optimizer, which "approximate[s] each
    distribution by using the mean or modal value".
    """
    return _run("point", query, memory, **engine)


def lsc_at_mean(
    query: JoinQuery, memory: DiscreteDistribution, **engine
) -> OptimizationResult:
    """The classical choice: optimize at the distribution's *mean*."""
    return _run("point", query, memory.mean(), **engine)


def lsc_at_mode(
    query: JoinQuery, memory: DiscreteDistribution, **engine
) -> OptimizationResult:
    """The other classical choice: optimize at the distribution's *mode*."""
    return _run("point", query, memory.mode(), **engine)


def optimize_algorithm_a(
    query: JoinQuery, memory: DiscreteDistribution, **engine
) -> OptimizationResult:
    """Algorithm A (Section 3.2): the standard optimizer as a black box.

    One LSC run per occupied level-set cell of the buckets and the mean
    (Section 3.7: no breakpoint between two buckets, the same costs), the
    winners scored by true expected cost (``candidates``).  It can miss the
    LEC plan: a plan optimal for no single bucket can win on average.
    Algorithm B at ``c = 1``.  ``include_mean=False`` probes the buckets
    only, the paper's black box.
    """
    return _run("algorithm_a", query, memory, **engine)


def optimize_algorithm_b(
    query: JoinQuery, memory: DiscreteDistribution, c: int = 3, **engine
) -> OptimizationResult:
    """Algorithm B (Section 3.3): the top ``c`` plans per bucket.

    One LSC run per occupied level-set cell keeps ``c`` plans at every
    dag node (merged by Proposition 3.1), up to ``c·b`` candidates —
    enough to catch a plan second-best at every value yet best on average.
    ``include_mean=False`` probes the buckets only, as Algorithm A's does.
    """
    return _run("algorithm_b", query, memory, top_k=c, **engine)


def optimize_algorithm_c(query: JoinQuery, memory, **engine) -> OptimizationResult:
    """Algorithm C (Sections 3.4-3.5): the exact LEC dynamic program.

    Expectation distributes over the sum of node costs, so costing each
    step by its *expected* cost keeps optimal substructure (Theorem
    3.3).  A :class:`~repro.core.markov.MarkovParameter` as ``memory``
    gives the LEC plan over the memory *sequence* (Theorem 3.4) and
    needs a plan space with a canonical phase order (not bushy).
    """
    return _run("expected", query, memory, **engine)


def optimize_algorithm_d(
    query: JoinQuery, memory: DiscreteDistribution, **engine
) -> OptimizationResult:
    """Algorithm D (Section 3.6): sizes and selectivities uncertain too.

    Result-size distributions propagate upward, rebucketed to
    ``max_buckets`` (Section 3.6.3).  Each step takes the naive
    ``b_M·b_L·b_R`` triple loop, faster than the ``O(b_M + b_L + b_R)``
    kernel at the grids the system serves.
    """
    return _run("multiparam", query, memory, **engine)
