"""`OptimizerService` and the `Ladder`: deadline-aware plan serving.

:class:`OptimizerService` is the in-process front end a query-processing
tier would call: a thread pool over :func:`repro.optimize` that answers
a repeat request from the plan tier
(:class:`~repro.serving.plan_cache.PlanCache`) and runs the
:class:`Ladder` on a miss.  The ladder trades optimization effort for
plan quality under a per-request deadline (full objective → LSC point
estimate); a cluster worker runs the same ladder and holds no tier.
With no deadline (or a generous one) the full rung runs and the result
is bit-identical to calling :func:`repro.optimize` directly.  Request, rung and deadline counters and latency histograms go
to a :class:`~repro.serving.metrics.MetricsRegistry`.
"""

from __future__ import annotations

import threading
import time
from concurrent.futures import Future, ThreadPoolExecutor
from dataclasses import dataclass, field
from functools import lru_cache
from numbers import Real
from operator import attrgetter
from typing import Dict, Iterable, List, Optional, Sequence, Tuple, Union

from ..core.distributions import DiscreteDistribution
from ..core.markov import MarkovParameter
from ..core.context import OptimizationContext, query_fingerprint
from ..costmodel.model import CostModel
from ..optimizer.errors import OptimizerConfigError
from ..optimizer.facade import canonical_objective, check_memory, model_key, optimize as _optimize
from ..optimizer.result import OptimizationResult
from ..plans.nodes import Plan
from ..plans.query import JoinQuery
from ..plans.space import PlanSpace
from ..tools.serialize import plan_from_dict, plan_to_dict
from .metrics import MetricsRegistry
from .plan_cache import PlanCache, PlanCacheKey, memory_key

__all__ = [
    "OptimizeRequest",
    "ServingResult",
    "LatencyEstimator",
    "Ladder",
    "OptimizerService",
    "RUNG_FULL",
    "RUNG_LSC",
]

#: Ladder rungs, best quality first.
RUNG_FULL = "full"
RUNG_LSC = "lsc"

#: EWMA weight of one observed full-rung latency (:class:`LatencyEstimator`).
EWMA_ALPHA = 0.3


@lru_cache(maxsize=64)  # a valid spelling is parsed once; an unknown one raises
def _space_key(plan_space) -> str:
    return PlanSpace.parse(plan_space).key


@dataclass(frozen=True)
class OptimizeRequest:
    """One optimization request as the service sees it.

    Mirrors :func:`repro.optimize`'s signature plus a ``deadline``
    (seconds of wall-clock budget for this request; ``None`` means
    unbounded, which always yields the full-quality answer).  ``context``
    reaches every rung as ``repro.optimize(context=...)``, so a kept
    request re-runs on memoized sizes and step costs; it names no answer
    (not in :meth:`cache_key`, not compared, never on the cluster wire).
    """

    query: JoinQuery
    objective: str = "lec"
    memory: Union[Real, DiscreteDistribution, MarkovParameter, None] = None
    cost_model: Optional[CostModel] = None
    deadline: Optional[float] = None
    plan_space: str = "left-deep"
    allow_cross_products: bool = False
    top_k: int = 1
    max_buckets: int = 16
    context: Optional[OptimizationContext] = field(
        default=None, compare=False, repr=False
    )

    #: The options in the cache key, in :meth:`knobs` order; the wire
    #: spells them by these names.
    OPTIONS = ("plan_space", "allow_cross_products", "top_k", "max_buckets")

    def knobs(self) -> Tuple:
        """The values of :attr:`OPTIONS`: the option tuple in the cache key.

        The plan space is normalised to its canonical key, so alias
        spellings (``"zigzag"``, ``"zig_zag"``, a :class:`PlanSpace`
        object) share one cache slot; an unknown spelling participates
        verbatim and fails later, inside the optimizer.
        """
        try:
            space_key = _space_key(self.plan_space)
        except (ValueError, TypeError):  # TypeError: an unhashable spelling
            space_key = str(self.plan_space)
        return (space_key, *_other_options(self))

    def kind(self) -> str:
        """The canonical objective kind, once the request is known well-formed.

        Raises :class:`OptimizerConfigError` for an unknown objective or a
        missing ``memory``, and :class:`MemoryTypeError` (a subclass) for
        a ``memory`` the objective does not take, as ``repro.optimize`` does.
        """
        kind = canonical_objective(self.objective)
        if self.memory is None:
            raise OptimizerConfigError(
                f"objective {self.objective!r} requires the memory= argument"
            )
        check_memory(kind, self.memory)
        return kind

    def cache_key(self, version: Tuple, cost_model: CostModel) -> PlanCacheKey:
        """Validate the request (:meth:`kind`) and name its answer at
        catalog ``version``: the one spelling of "which stored plan
        answers it" for the service and the cluster gateway
        (``key.objective`` is the canonical kind).  Every call derives
        the name afresh, so a request built per arrival pays what a
        resubmitted one does; the key is built positionally, which
        costs about half of a keyword ``PlanCacheKey(...)``."""
        return PlanCacheKey(query_fingerprint(self.query), self.kind(),
                            model_key(cost_model), memory_key(self.memory),
                            self.knobs(), version)


_other_options = attrgetter(*OptimizeRequest.OPTIONS[1:])  # all but the plan space


@dataclass(frozen=True)
class ServingResult:
    """What the service hands back: a plan, plus how it was produced."""

    plan: Plan
    objective_value: float
    objective: str  # canonical objective kind ("expected", "point", ...)
    rung: str  # which ladder rung answered (RUNG_FULL/LSC)
    cache_hit: bool
    latency: float  # wall-clock seconds spent inside the service
    deadline: Optional[float] = None
    deadline_exceeded: bool = False
    cache_tier: Optional[str] = None  # "hot" (this service's tier) on a hit, else None

    # Never shed, retried or coalesced: read as a ClusterResult's (constants, not fields).
    status = "ok"
    ok = True
    retries = 0
    coalesced = False

    @property
    def degraded(self) -> bool:
        """True when the LSC rung, not the full objective, produced the plan."""
        return self.rung != RUNG_FULL


class LatencyEstimator:
    """EWMA latency estimates of the full rung per (objective, query size).

    The ladder consults this *before* starting the full rung:
    optimization cannot be interrupted mid-flight, so deadline
    enforcement means predicting whether the full rung fits the
    remaining budget.  An unobserved (objective, size) is attempted.
    Each observation moves an estimate by :data:`EWMA_ALPHA`.
    """

    def __init__(self) -> None:
        self._ewma: Dict[Tuple[str, int], float] = {}
        self._lock = threading.Lock()

    def record(self, objective: str, n_relations: int, seconds: float) -> None:
        """Fold one observed full-rung latency into the estimate."""
        key = (objective, int(n_relations))
        with self._lock:
            prev = self._ewma.get(key)
            if prev is None:
                self._ewma[key] = float(seconds)
            else:
                self._ewma[key] = (1 - EWMA_ALPHA) * prev + EWMA_ALPHA * seconds

    def estimate(self, objective: str, n_relations: int) -> Optional[float]:
        """Current full-rung estimate, or ``None`` if never observed."""
        with self._lock:
            return self._ewma.get((objective, int(n_relations)))


class Ladder:
    """The degradation ladder: the full requested objective, else LSC.

    :meth:`run` starts the full rung unless the budget is already spent or
    the :class:`LatencyEstimator` predicts it will not finish inside what
    is left, and then runs the classical LSC point optimization at the
    mean memory instead — Python threads cannot be cancelled
    mid-optimization, so the budget is enforced by *not starting* work
    predicted to blow it, the effort/quality trade that
    probably-approximately-optimal optimization formalizes.  LSC is cheaper than the full rung of every
    objective (EXPERIMENTS.md, "The ladder has two rungs"), and it
    always runs when chosen, so a request always gets a plan.  A
    ``point`` request has the one rung.  The ladder holds no plan:
    ``OptimizerService.execute`` runs it after a tier miss, and a
    cluster worker on every request it reads.

    The request's own ``deadline`` is the budget.  Tests that force a
    rung assign :attr:`estimator`.
    """

    def __init__(self) -> None:
        self.metrics = MetricsRegistry()
        self.estimator = LatencyEstimator()

    def run(self, request: OptimizeRequest,
            started: Optional[float] = None) -> ServingResult:
        """Optimize ``request`` on the calling thread, down the ladder.

        ``started`` (a ``time.perf_counter`` reading, now by default) is
        when the request's deadline began to run down.
        """
        if started is None:
            started = time.perf_counter()
        kind = request.kind()
        cm = request.cost_model if request.cost_model is not None else CostModel()
        deadline = request.deadline
        n_rels = len(request.query.relations)
        rung = RUNG_FULL
        # The full objective of "point" already is the cheapest rung.
        if deadline is not None and kind != "point":
            left = deadline - (time.perf_counter() - started)
            est = self.estimator.estimate(kind, n_rels)
            if left <= 0 or (est is not None and est >= left):
                rung = RUNG_LSC
        t1 = time.perf_counter()
        result = self._run_rung(rung, request, kind, cm)
        if rung == RUNG_FULL:
            self.estimator.record(kind, n_rels, time.perf_counter() - t1)

        latency = time.perf_counter() - started
        exceeded = deadline is not None and latency > deadline
        self.metrics.counter(f"serving.rung.{rung}").increment()
        if rung != RUNG_FULL:
            self.metrics.counter("serving.degraded").increment()
        if exceeded:
            self.metrics.counter("serving.deadline_exceeded").increment()
        self.metrics.histogram("serving.latency.optimize").record(latency)
        return ServingResult(
            plan=result.plan,
            objective_value=result.objective,
            objective=kind,
            rung=rung,
            cache_hit=False,
            latency=latency,
            deadline=deadline,
            deadline_exceeded=exceeded,
        )

    def _run_rung(
        self, rung: str, request: OptimizeRequest, kind: str, cm: CostModel
    ) -> OptimizationResult:
        common = dict(
            cost_model=cm,
            plan_space=request.plan_space,
            allow_cross_products=request.allow_cross_products,
            context=request.context,
        )
        if rung == RUNG_FULL:
            return _optimize(
                request.query,
                kind,
                memory=request.memory,
                top_k=request.top_k,
                max_buckets=request.max_buckets,
                **common,
            )
        assert rung == RUNG_LSC
        return _optimize(
            request.query,
            "point",
            memory=_point_memory(request.memory),
            **common,
        )


def _point_memory(memory) -> float:
    """The LSC rung's memory: the mean (a Markov chain's first marginal's)."""
    if isinstance(memory, DiscreteDistribution):
        return float(memory.mean())
    if isinstance(memory, MarkovParameter):
        return float(memory.marginal(0).mean())
    return float(memory)


class OptimizerService:
    """Concurrent plan-serving facade over :func:`repro.optimize`.

    Parameters
    ----------
    max_workers:
        Thread-pool size for :meth:`submit`/:meth:`optimize_batch`.
    catalog_sources:
        Objects carrying a monotonically increasing ``version``
        attribute (``StatisticsCatalog``, ``SelectivityFeedback``).
        Their combined version fences the plan tier: part of every key,
        and when it changes, stale entries are eagerly invalidated.

    Misses run on the service's :class:`Ladder`, whose
    :class:`MetricsRegistry` is :attr:`metrics`.
    """

    def __init__(self, max_workers: Optional[int] = None,
                 catalog_sources: Sequence = ()):
        self.ladder = Ladder()
        self.metrics = self.ladder.metrics
        self._sources = tuple(catalog_sources)
        self.cache = PlanCache()
        self.cache.invalidate_stale(self._catalog_version())
        self._pool = ThreadPoolExecutor(
            max_workers=max_workers, thread_name_prefix="repro-serving"
        )
        self._close_lock = threading.Lock()
        self._closed = False

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------

    @property
    def closed(self) -> bool:
        """True once :meth:`close` has begun; new submissions are refused."""
        return self._closed

    def close(self) -> None:
        """Shut the pool down so the hosting process can exit promptly.

        Queued-but-unstarted futures are cancelled and in-flight
        requests are drained — Python threads
        cannot be interrupted mid-optimization, so the running ones are
        waited for, but nothing behind them starts.  Without the
        cancellation a deep queue would keep the pool alive until every
        request ran to completion.  Idempotent; :meth:`submit` after
        close raises ``RuntimeError``.
        """
        with self._close_lock:
            self._closed = True
        self._pool.shutdown(wait=True, cancel_futures=True)

    def __enter__(self) -> "OptimizerService":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    # ------------------------------------------------------------------
    # Public API
    # ------------------------------------------------------------------

    def submit(self, request: OptimizeRequest) -> "Future[ServingResult]":
        """Schedule one request on the pool; returns a future."""
        with self._close_lock:
            if self._closed:
                raise RuntimeError("OptimizerService is closed")
            return self._pool.submit(self.execute, request)

    def optimize(self, query: JoinQuery, objective: str = "lec",
                 **kwargs) -> ServingResult:
        """Synchronous single request, run on the calling thread."""
        return self.execute(
            OptimizeRequest(query=query, objective=objective, **kwargs)
        )

    def optimize_batch(
        self, requests: Iterable[OptimizeRequest]
    ) -> List[ServingResult]:
        """Run many requests on the pool; results in request order."""
        futures = [self.submit(r) for r in requests]
        return [f.result() for f in futures]

    def metrics_snapshot(self) -> Dict:
        """:meth:`MetricsRegistry.snapshot`, with the tier's counters
        (``plan_cache.*``, each once non-zero) read from it now."""
        stats = self.cache.stats()
        return self.metrics.snapshot({
            f"plan_cache.{name}": stats[name]
            for name in ("hits", "misses", "evictions", "invalidations")
            if stats[name]
        })

    def _catalog_version(self) -> Tuple[int, ...]:
        return tuple(int(s.version) for s in self._sources)

    # ------------------------------------------------------------------
    # Execution
    # ------------------------------------------------------------------

    def execute(self, request: OptimizeRequest) -> ServingResult:
        """Serve one prepared request on the calling thread — what
        :meth:`submit` schedules."""
        t0 = time.perf_counter()
        self.metrics.counter("serving.requests").increment()

        cache, version = self.cache, self._catalog_version()
        if version != cache.version:
            cache.invalidate_stale(version)
            self.metrics.counter("serving.catalog_invalidations").increment()
        cm = request.cost_model if request.cost_model is not None else CostModel()
        key = request.cache_key(version, cm)

        stored = cache.get(key)
        if stored is not None:
            plan = plan_from_dict(stored.plan_doc)  # each hit gets its own tree
            latency = time.perf_counter() - t0
            self.metrics.histogram("serving.latency.cache_hit").record(latency)
            return ServingResult(
                plan=plan,
                objective_value=stored.objective_value,
                objective=key.objective,
                rung=RUNG_FULL,
                cache_hit=True,
                latency=latency,
                deadline=request.deadline,
                cache_tier="hot",
            )

        result = self.ladder.run(request, t0)
        if result.rung == RUNG_FULL:
            # Refused if the fence moved while the ladder ran.
            cache.put(key, plan_to_dict(result.plan), result.objective_value,
                      key.objective)
        return result
