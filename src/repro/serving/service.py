"""`OptimizerService` and the `Ladder`: deadline-aware plan serving.

:class:`OptimizerService` is the in-process front end a query-processing
tier would call: a thread pool over :func:`repro.optimize` that answers
a repeat request from the plan tier
(:class:`~repro.serving.plan_cache.PlanCache`) and runs the
:class:`Ladder` on a miss.  The ladder trades optimization effort for
plan quality under a per-request deadline (full objective → coarser
bucketing → LSC point estimate); a cluster worker runs the same ladder
and holds no tier.  With no deadline (or a generous one) the full rung
runs and the result is bit-identical to calling :func:`repro.optimize`
directly.  Request, rung and deadline counters and latency histograms go
to a :class:`~repro.serving.metrics.MetricsRegistry`.
"""

from __future__ import annotations

import threading
import time
from concurrent.futures import Future, ThreadPoolExecutor
from dataclasses import dataclass, field, replace
from functools import lru_cache
from numbers import Real
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
    "RUNG_COARSE",
    "RUNG_LSC",
]

#: Ladder rungs, best quality first.
RUNG_FULL = "full"
RUNG_COARSE = "coarse"
RUNG_LSC = "lsc"


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
    fast: bool = False
    include_mean: bool = True
    context: Optional[OptimizationContext] = field(
        default=None, compare=False, repr=False
    )

    def knobs(self) -> Tuple:
        """The option tuple that participates in the cache key.

        The plan space is normalised to its canonical key, so alias
        spellings (``"zigzag"``, ``"zig_zag"``, a :class:`PlanSpace`
        object) share one cache slot; an unknown spelling participates
        verbatim and fails later, inside the optimizer.
        """
        try:
            space_key = _space_key(self.plan_space)
        except (ValueError, TypeError):  # TypeError: an unhashable spelling
            space_key = str(self.plan_space)
        return (
            space_key,
            self.allow_cross_products,
            self.top_k,
            self.max_buckets,
            self.fast,
            self.include_mean,
        )

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
        (``key.objective`` is the canonical kind)."""
        return PlanCacheKey(
            fingerprint=query_fingerprint(self.query),
            objective=self.kind(),
            model_key=model_key(cost_model),
            memory=memory_key(self.memory),
            knobs=self.knobs(),
            catalog_version=version,
        )


@dataclass(frozen=True)
class ServingResult:
    """What the service hands back: a plan, plus how it was produced."""

    plan: Plan
    objective_value: float
    objective: str  # canonical objective kind ("expected", "point", ...)
    rung: str  # which ladder rung answered (RUNG_FULL/COARSE/LSC)
    cache_hit: bool
    latency: float  # wall-clock seconds spent inside the service
    deadline: Optional[float] = None
    deadline_exceeded: bool = False
    skipped_rungs: Tuple[str, ...] = ()
    cache_tier: Optional[str] = None  # "hot" (this service's tier) on a hit, else None

    @property
    def degraded(self) -> bool:
        """True when a rung below the full objective produced the plan."""
        return self.rung != RUNG_FULL


class LatencyEstimator:
    """EWMA latency estimates per (rung, objective, query size).

    The ladder consults this *before* starting a rung: optimization
    cannot be interrupted mid-flight, so deadline enforcement means
    predicting whether a rung fits the remaining budget.  Unknown rungs
    are treated optimistically on a cold start (attempted), but once the
    rung above them has an estimate they inherit a discounted version of
    it (each step down the ladder is assumed at least ~4x cheaper),
    keeping skip decisions sane before every rung has run.
    """

    def __init__(self, alpha: float = 0.3, inherit_discount: float = 4.0):
        if not 0.0 < alpha <= 1.0:
            raise ValueError("alpha must be in (0, 1]")
        if inherit_discount < 1.0:
            raise ValueError("inherit_discount must be >= 1")
        self.alpha = alpha
        self.inherit_discount = inherit_discount
        self._ewma: Dict[Tuple[str, str, int], float] = {}
        self._lock = threading.Lock()

    def record(self, rung: str, objective: str, n_relations: int,
               seconds: float) -> None:
        """Fold one observed latency into the estimate."""
        key = (rung, objective, int(n_relations))
        with self._lock:
            prev = self._ewma.get(key)
            if prev is None:
                self._ewma[key] = float(seconds)
            else:
                self._ewma[key] = (1 - self.alpha) * prev + self.alpha * seconds

    def estimate(self, rung: str, objective: str,
                 n_relations: int) -> Optional[float]:
        """Current estimate for one rung, or ``None`` if never observed."""
        with self._lock:
            return self._ewma.get((rung, objective, int(n_relations)))

    def ladder_estimates(
        self, ladder: Sequence[str], objective: str, n_relations: int
    ) -> List[Optional[float]]:
        """Estimates down the ladder, with unknowns inheriting from above."""
        out: List[Optional[float]] = []
        for i, rung in enumerate(ladder):
            est = self.estimate(rung, objective, n_relations)
            if est is None and i > 0 and out[i - 1] is not None:
                est = out[i - 1] / self.inherit_discount
            out.append(est)
        return out


class Ladder:
    """The degradation ladder: one request's rungs, best quality first.

    The full requested objective, then the requested objective at coarser
    bucketing (Algorithm A over a rebucketed memory distribution, or
    Algorithm D in fast mode), then the classical LSC point optimization.
    :meth:`run` starts the first rung the :class:`LatencyEstimator`
    predicts will finish inside the remaining deadline — Python threads
    cannot be cancelled mid-optimization, so the budget is enforced by
    *not starting* work predicted to blow it, the effort/quality trade
    that probably-approximately-optimal optimization formalizes.  The
    last rung always runs, so a request always gets a plan.  The ladder
    holds no plan: ``OptimizerService.execute`` runs it after a tier
    miss, and a cluster worker on every request it reads.

    Parameters
    ----------
    metrics:
        :class:`MetricsRegistry` for the rung, skip, degradation and
        deadline counters and the optimize latency (fresh by default).
    coarse_buckets:
        Bucket cap used by the degraded "coarse" rung.
    default_deadline:
        Budget (seconds) applied to requests that do not set their own.
    estimator:
        Custom :class:`LatencyEstimator` (tests use this to force
        deterministic skip decisions).
    """

    def __init__(
        self,
        metrics: Optional[MetricsRegistry] = None,
        coarse_buckets: int = 3,
        default_deadline: Optional[float] = None,
        estimator: Optional[LatencyEstimator] = None,
    ):
        if coarse_buckets < 1:
            raise ValueError("coarse_buckets must be >= 1")
        self.metrics = metrics if metrics is not None else MetricsRegistry()
        self.coarse_buckets = coarse_buckets
        self.default_deadline = default_deadline
        self.estimator = estimator if estimator is not None else LatencyEstimator()

    def deadline_of(self, request: OptimizeRequest) -> Optional[float]:
        """The request's own budget, or the default one."""
        return (
            request.deadline
            if request.deadline is not None
            else self.default_deadline
        )

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
        deadline = self.deadline_of(request)
        # The full objective of "point" already is the cheapest rung.
        ladder = (RUNG_FULL,) if kind == "point" else (RUNG_FULL, RUNG_COARSE, RUNG_LSC)
        n_rels = len(request.query.relations)
        estimates = self.estimator.ladder_estimates(ladder, kind, n_rels)

        skipped: List[str] = []
        for rung, est in zip(ladder[:-1], estimates):
            # Skip a rung predicted not to fit; the final rung always
            # runs so the request is guaranteed *some* plan.
            if (deadline is None or est is None
                    or est < deadline - (time.perf_counter() - started)):
                break
            skipped.append(rung)
            self.metrics.counter("serving.rung_skipped").increment()
        rung = ladder[len(skipped)]
        t1 = time.perf_counter()
        result = self._run_rung(rung, request, kind, cm)
        self.estimator.record(rung, kind, n_rels, time.perf_counter() - t1)

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
            skipped_rungs=tuple(skipped),
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
                fast=request.fast,
                include_mean=request.include_mean,
                **common,
            )
        if rung == RUNG_COARSE:
            if kind == "multiparam":
                # Same multi-parameter DP, fast mode + tight bucket cap.
                return _optimize(
                    request.query,
                    "multiparam",
                    memory=_as_distribution(request.memory),
                    max_buckets=self.coarse_buckets,
                    fast=True,
                    **common,
                )
            # Everything else degrades to Algorithm A over a coarsened
            # memory distribution: one classical optimization per bucket.
            coarse = _as_distribution(request.memory)
            if coarse.n_buckets > self.coarse_buckets:
                coarse = coarse.rebucket(self.coarse_buckets)
            return _optimize(
                request.query,
                "algorithm_a",
                memory=coarse,
                include_mean=False,
                **common,
            )
        assert rung == RUNG_LSC
        return _optimize(
            request.query,
            "point",
            memory=_point_memory(request.memory),
            **common,
        )


# -- memory-input coercions for the degraded rungs ---------------------


def _as_distribution(memory) -> DiscreteDistribution:
    if isinstance(memory, DiscreteDistribution):
        return memory
    if isinstance(memory, MarkovParameter):
        return memory.marginal(0)
    return DiscreteDistribution([float(memory)], [1.0])


def _point_memory(memory) -> float:
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
    metrics:
        Shared :class:`MetricsRegistry` (fresh one by default).
    catalog_sources:
        Objects carrying a monotonically increasing ``version``
        attribute (``StatisticsCatalog``, ``SelectivityFeedback``).
        Their combined version fences the plan tier: part of every key,
        and when it changes, stale entries are eagerly invalidated.
    default_deadline / coarse_buckets / estimator:
        Forwarded to the service's :class:`Ladder`.
    """

    def __init__(
        self,
        max_workers: Optional[int] = None,
        metrics: Optional[MetricsRegistry] = None,
        catalog_sources: Sequence = (),
        default_deadline: Optional[float] = None,
        coarse_buckets: int = 3,
        estimator: Optional[LatencyEstimator] = None,
    ):
        self.metrics = metrics if metrics is not None else MetricsRegistry()
        self.ladder = Ladder(self.metrics, coarse_buckets, default_deadline, estimator)
        self._sources = tuple(catalog_sources)
        self.cache = PlanCache()
        self.cache.invalidate_stale(self._catalog_version())
        self._pool = ThreadPoolExecutor(
            max_workers=max_workers, thread_name_prefix="repro-serving"
        )
        self._pending_lock = threading.Lock()
        self._pending: "set[Future]" = set()
        self._closed = False

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------

    def pending_requests(self) -> int:
        """Submitted requests not yet finished (queued or in flight)."""
        with self._pending_lock:
            return len(self._pending)

    @property
    def closed(self) -> bool:
        """True once :meth:`close` has begun; new submissions are refused."""
        return self._closed

    def close(self, cancel_pending: bool = True) -> None:
        """Shut the pool down so the hosting process can exit promptly.

        Queued-but-unstarted futures are cancelled (``cancel_pending``,
        default) and in-flight requests are drained — Python threads
        cannot be interrupted mid-optimization, so the running ones are
        waited for, but nothing behind them starts.  Without the
        cancellation a deep queue would keep the pool alive until every
        request ran to completion.  Idempotent; :meth:`submit` after
        close raises ``RuntimeError``.
        """
        with self._pending_lock:
            self._closed = True
        self._pool.shutdown(wait=True, cancel_futures=cancel_pending)
        # Cancelled futures never ran execute; drop them from the
        # pending set so accounting ends at zero.
        with self._pending_lock:
            self._pending = {f for f in self._pending if not f.cancelled()}

    def __enter__(self) -> "OptimizerService":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    # ------------------------------------------------------------------
    # Public API
    # ------------------------------------------------------------------

    def submit(self, request: Optional[OptimizeRequest] = None,
               **kwargs) -> "Future[ServingResult]":
        """Schedule one request on the pool; returns a future.

        Either pass a prepared :class:`OptimizeRequest` or the keyword
        arguments to build one (``query=``, ``objective=``, ...).
        """
        if request is None:
            request = OptimizeRequest(**kwargs)
        elif kwargs:
            request = replace(request, **kwargs)
        return self._submit(request)

    def _submit(self, request: OptimizeRequest) -> "Future[ServingResult]":
        with self._pending_lock:
            if self._closed:
                raise RuntimeError("OptimizerService is closed")
            future = self._pool.submit(self.execute, request)
            self._pending.add(future)
        future.add_done_callback(self._request_done)
        return future

    def _request_done(self, future: "Future[ServingResult]") -> None:
        with self._pending_lock:
            self._pending.discard(future)

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
        futures = [self._submit(r) for r in requests]
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
                deadline=self.ladder.deadline_of(request),
                cache_tier="hot",
            )

        result = self.ladder.run(request, t0)
        if result.rung == RUNG_FULL:
            # Refused if the fence moved while the ladder ran.
            cache.put(key, plan_to_dict(result.plan), result.objective_value,
                      key.objective)
        return result
