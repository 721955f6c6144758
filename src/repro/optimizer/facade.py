"""The single front door: :func:`repro.optimize`.

Every optimization mode this library implements — classical point-cost
(LSC), the exact expected-cost DP (Algorithm C / LEC), phase-marginal
costing for Markov memory, the multi-parameter DP (Algorithm D), and the
candidate-generation Algorithms A/B — is reachable through one call::

    from repro import optimize, two_point

    result = optimize(query, objective="lec", memory=two_point(2000, 0.8, 700))
    result.plan, result.objective

The facade owns a small LRU of :class:`~repro.core.context.
OptimizationContext` objects, keyed by the query's statistics
fingerprint and the cost model's configuration.  Repeated calls on the
same (query, cost model) therefore share memoized subset sizes, size
distributions, survival tables and step costs; mutating the catalog
changes the fingerprint, which transparently builds a fresh context —
stale reuse cannot happen.

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
``algorithm_a``           a :class:`DiscreteDistribution` (per-bucket
                          black-box candidate generation)
``algorithm_b``           a :class:`DiscreteDistribution` (top-``c``
                          per bucket, re-costed by expectation)
========================  ==========================================
"""

from __future__ import annotations

import threading
from collections import OrderedDict
from numbers import Real
from typing import Optional, Tuple, Union

from ..core.context import OptimizationContext, query_fingerprint
from ..core.distributions import DiscreteDistribution
from ..core.markov import MarkovParameter
from ..costmodel.model import CostModel
from ..plans.query import JoinQuery
from ..plans.space import PlanSpace
from .errors import OptimizerConfigError
from .result import OptimizationResult

__all__ = [
    "optimize",
    "last_context",
    "clear_context_cache",
    "canonical_objective",
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

# LRU of contexts keyed by (query fingerprint, cost-model configuration).
# Small on purpose: a context holds every memoized distribution for its
# query, and the working set of distinct (query, model) pairs in one
# process is tiny.  The lock makes get/insert/evict safe under the
# serving layer's thread pool — OrderedDict.move_to_end/popitem are not
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


def model_key(cm: CostModel) -> Tuple:
    """The part of a cost model's configuration that can change a plan."""
    return (cm.methods, cm.pipelined_methods)


def _context_for(query: JoinQuery, cm: CostModel) -> OptimizationContext:
    """Fetch (or build) the shared context for this query + cost model.

    The key embeds every statistic the optimizer reads, so a query built
    from mutated catalog statistics maps to a different slot — the old
    context simply ages out of the LRU.  Thread-safe: two concurrent
    callers with the same key receive the same context object.
    """
    key = (query_fingerprint(query), model_key(cm))
    with _context_cache_lock:
        ctx = _context_cache.get(key)
        if ctx is not None:
            _context_cache.move_to_end(key)
            return ctx
        ctx = OptimizationContext(query, cost_model=cm)
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


def _require_distribution(memory, objective: str) -> DiscreteDistribution:
    if not isinstance(memory, DiscreteDistribution):
        raise OptimizerConfigError(
            f"objective {objective!r} needs memory as a DiscreteDistribution, "
            f"got {type(memory).__name__}"
        )
    return memory


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
    include_mean: bool = True,
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
    max_buckets, fast:
        Multi-parameter knobs (Algorithm D only).
    include_mean:
        Algorithms A/B: probe the distribution mean as an extra bucket.
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
        Unknown objective, missing/ill-typed ``memory``, or invalid
        engine settings (bad plan space, ``top_k < 1``).
    """
    global _last_context

    # The algorithm modules import this package (for the costers and the
    # engine), so importing them at module load would be circular; they
    # are fully initialized by the time optimize() runs.
    from ..core.algorithm_a import optimize_algorithm_a
    from ..core.algorithm_b import optimize_algorithm_b
    from ..core.algorithm_c import optimize_algorithm_c
    from ..core.algorithm_d import optimize_algorithm_d
    from ..core.lsc import optimize_lsc

    kind = canonical_objective(objective)
    if memory is None:
        raise OptimizerConfigError(
            f"objective {objective!r} requires the memory= argument"
        )

    try:
        space = PlanSpace.parse(plan_space)
    except ValueError as exc:
        raise OptimizerConfigError(str(exc)) from None

    cm = cost_model if cost_model is not None else CostModel()
    ctx = context if context is not None else _context_for(query, cm)
    # Published under the cache lock: clear_context_cache() resets this
    # global concurrently, and an unguarded write could resurrect a
    # just-cleared context for observers of last_context().
    with _context_cache_lock:
        _last_context = ctx
    common = dict(
        cost_model=cm,
        plan_space=space,
        allow_cross_products=allow_cross_products,
        context=ctx,
    )

    if kind == "point":
        if isinstance(memory, DiscreteDistribution):
            memory = memory.mean()
        if not isinstance(memory, Real):
            raise OptimizerConfigError(
                "objective 'point' needs memory as a number of pages "
                f"(or a distribution, whose mean is used), got "
                f"{type(memory).__name__}"
            )
        return optimize_lsc(query, float(memory), top_k=top_k, **common)

    if kind == "expected":
        if not isinstance(memory, (DiscreteDistribution, MarkovParameter)):
            raise OptimizerConfigError(
                "objective 'lec' needs memory as a DiscreteDistribution "
                f"or MarkovParameter, got {type(memory).__name__}"
            )
        return optimize_algorithm_c(query, memory, top_k=top_k, **common)

    if kind == "markov":
        if not isinstance(memory, MarkovParameter):
            raise OptimizerConfigError(
                "objective 'markov' needs memory as a MarkovParameter, "
                f"got {type(memory).__name__}"
            )
        return optimize_algorithm_c(query, memory, top_k=top_k, **common)

    if kind == "multiparam":
        dist = _require_distribution(memory, "multiparam")
        return optimize_algorithm_d(
            query, dist, max_buckets=max_buckets, fast=fast, top_k=top_k, **common
        )

    if kind == "algorithm_a":
        dist = _require_distribution(memory, "algorithm_a")
        return optimize_algorithm_a(
            query, dist, include_mean=include_mean, **common
        )

    # algorithm_b
    dist = _require_distribution(memory, "algorithm_b")
    return optimize_algorithm_b(
        query, dist, c=top_k, include_mean=include_mean, **common
    )
