"""The shared optimization context: one memo layer for a whole query.

Every costing objective in this library re-derives the same intermediate
state: subset sizes and page-count distributions per relation subset,
products/rebucketings of :class:`~repro.core.distributions.
DiscreteDistribution` objects, and the survival tables behind the
linear-time expected-cost paths.  Historically each coster rebuilt these
privately on every :meth:`~repro.optimizer.costers.Coster.bind`, so
running several optimizers over one query (Algorithms A-D, parametric
region sweeps, the experiment harness) repeated identical work many
times over.

:class:`OptimizationContext` is the seam that removes that duplication.
It is created once per (catalog, cost-model, query) triple and threaded
through every layer — the costers, :class:`~repro.optimizer.systemr.
SystemRDP`, Algorithms A-D, the deferred-decision strategies, and the
:func:`repro.optimize` facade — memoizing:

* **subset sizes** (``subset_size``) and **subset page-count
  distributions** (``subset_size_distribution``), keyed by ``frozenset``
  of relation names;
* **distribution binary ops** — independent products, convolutions and
  rebucketings — keyed by the operands' value-based hashes, so two
  structurally equal distributions share one result;
* **survival tables** (:class:`~repro.core.expected_cost._SurvivalTable`)
  per memory distribution, amortised across all dag nodes and all
  optimizer invocations;
* **step costs** (join steps, materialisation writes, enforcer sorts)
  via a generic namespaced memo that costers key by their full parameter
  identity, so repeated optimizations of the same query skip straight to
  the cached expectations.  It is two-level, ``prefix -> {(left, right):
  cost}``: a batch of steps sharing a formula resolves the prefix once
  and probes pairs;
* **DP skeletons** — what a System-R run walks that depends on no cost
  (relation numbering, level masks, each mask's splits), keyed by
  (relation names, plan-space shape, cross products, join methods):
  recorded by the first run, replayed by later ones (Algorithms A/B).

A context is *only* valid for the exact statistics it was built from:
:func:`query_fingerprint` captures every number the optimizer can read
(sizes, distributions, selectivities, orders), and :meth:`matches`
refuses a query whose fingerprint differs — the facade uses this to
build a fresh context whenever catalog statistics change.

Cache effectiveness is observable: :meth:`stats` reports per-cache
hit/miss counters, the number the context-cache micro-benchmark and the
E4/E7-style overhead accounting rest on.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import (
    Callable,
    Dict,
    FrozenSet,
    Hashable,
    Iterable,
    List,
    Optional,
    Sequence,
    Tuple,
)

from ..plans.properties import JoinMethod
from ..costmodel.estimates import (
    SizeEstimate,
    subset_size,
    subset_size_bounds,
    subset_size_distribution,
)
from .distributions import DiscreteDistribution
from .expected_cost import PaddedBatch, _SurvivalTable, expected_join_costs_batched

__all__ = ["CacheStats", "OptimizationContext", "query_fingerprint"]


@dataclass
class CacheStats:
    """Hit/miss counters for one cache inside the context."""

    hits: int = 0
    misses: int = 0

    @property
    def lookups(self) -> int:
        """Total lookups against this cache."""
        return self.hits + self.misses

    @property
    def hit_rate(self) -> float:
        """Fraction of lookups answered from cache (0.0 when unused)."""
        return self.hits / self.lookups if self.lookups else 0.0

    def as_dict(self) -> Dict[str, float]:
        """Plain-dict view for reporting."""
        return {"hits": self.hits, "misses": self.misses, "hit_rate": self.hit_rate}


def query_fingerprint(query) -> Tuple:
    """A hashable digest of every statistic the optimizer reads.

    Two queries with equal fingerprints are interchangeable for costing
    purposes; a mutated catalog (different sizes, selectivities,
    distributions) necessarily changes the fingerprint, which is how the
    facade knows to discard a stale context.  A query is immutable: this
    is the value it took once, a tuple that hashes its leaves once too.
    """
    return query.fingerprint


class OptimizationContext:
    """Shared memoization for all optimizer layers working on one query.

    Parameters
    ----------
    query:
        The join query this context serves.  All caches are keyed under
        the assumption that the query's statistics never change; build a
        new context when they do (see :meth:`matches`).
    default_max_buckets:
        Rebucketing cap used when :meth:`size_distribution` is called
        without an explicit ``max_buckets``.
    """

    def __init__(
        self,
        query,
        default_max_buckets: int = 16,
    ):
        self.query = query
        self.default_max_buckets = default_max_buckets
        self.fingerprint: Tuple = query_fingerprint(query)

        self._sizes: Dict[FrozenSet[str], SizeEstimate] = {}
        self._bounds: Dict[FrozenSet[str], Tuple[float, float]] = {}
        self._size_dists: Dict[Tuple[FrozenSet[str], int], DiscreteDistribution] = {}
        self._dist_ops: Dict[Tuple, DiscreteDistribution] = {}
        self._survival: Dict[DiscreteDistribution, _SurvivalTable] = {}
        #: key[:-2] (coster identity, formula) -> {key[-2:] (operands): cost}
        self._cost_memo: Dict[Tuple, Dict[Tuple, float]] = {}
        #: (names, shape, cross products, methods) -> a DP skeleton
        self._skeletons: Dict[Tuple, Tuple] = {}
        self._stats: Dict[str, CacheStats] = {
            "subset_sizes": CacheStats(),
            "subset_bounds": CacheStats(),
            "size_distributions": CacheStats(),
            "dist_ops": CacheStats(),
            "survival_tables": CacheStats(),
            "step_costs": CacheStats(),
            "batched_joins": CacheStats(),
            "skeletons": CacheStats(),
        }

    # ------------------------------------------------------------------
    # Validity
    # ------------------------------------------------------------------

    def matches(self, query) -> bool:
        """True when ``query`` carries the statistics this context serves.

        Identity is the fast path; otherwise the fingerprints must agree
        — a query rebuilt from mutated catalog statistics fails this
        check, forcing callers to construct a fresh context rather than
        silently reusing stale sizes and distributions.
        """
        if query is self.query:
            return True
        return query_fingerprint(query) == self.fingerprint

    # ------------------------------------------------------------------
    # Layer 1: subset sizes
    # ------------------------------------------------------------------

    def subset_size(self, rels: Iterable[str]) -> SizeEstimate:
        """Memoized point size estimate for the join over ``rels``."""
        key = frozenset(rels)
        stats = self._stats["subset_sizes"]
        cached = self._sizes.get(key)
        if cached is not None:
            stats.hits += 1
            return cached
        stats.misses += 1
        est = subset_size(key, self.query)
        self._sizes[key] = est
        return est

    def subset_pages(self, rels: Iterable[str]) -> float:
        """Memoized point page count for the join over ``rels``."""
        return self.subset_size(rels).pages

    def subset_bounds(self, rels: Iterable[str]) -> Tuple[float, float]:
        """Memoized analytic ``(lo, hi)`` page bounds for ``rels``.

        The Chen & Schneider-style intermediate-size bounds (see
        :func:`repro.costmodel.estimates.subset_size_bounds`), used to
        clamp propagated distributions.
        """
        key = frozenset(rels)
        stats = self._stats["subset_bounds"]
        cached = self._bounds.get(key)
        if cached is not None:
            stats.hits += 1
            return cached
        stats.misses += 1
        bounds = subset_size_bounds(key, self.query)
        self._bounds[key] = bounds
        return bounds

    def size_distribution(
        self, rels: Iterable[str], max_buckets: Optional[int] = None
    ) -> DiscreteDistribution:
        """Memoized page-count distribution for the join over ``rels``.

        The underlying propagation routes its distribution products and
        rebucketings through this context's op cache, so structurally
        shared subexpressions (the same relation pair inside two larger
        subsets, say) are computed once.
        """
        buckets = max_buckets if max_buckets is not None else self.default_max_buckets
        key = (frozenset(rels), buckets)
        stats = self._stats["size_distributions"]
        cached = self._size_dists.get(key)
        if cached is not None:
            stats.hits += 1
            return cached
        stats.misses += 1
        dist = subset_size_distribution(
            key[0], self.query, max_buckets=buckets, ops=self
        )
        self._size_dists[key] = dist
        return dist

    # ------------------------------------------------------------------
    # Layer 2: distribution binary ops (value-hash keyed)
    # ------------------------------------------------------------------
    # These three methods satisfy the ``ops`` protocol of
    # :func:`repro.costmodel.estimates.subset_size_distribution`.

    def product(
        self, a: DiscreteDistribution, b: DiscreteDistribution
    ) -> DiscreteDistribution:
        """Cached distribution of ``X · Y`` for independent ``X, Y``."""
        return self._dist_op(("mul", a, b), lambda: a.multiply(b))

    def convolve(
        self, a: DiscreteDistribution, b: DiscreteDistribution
    ) -> DiscreteDistribution:
        """Cached distribution of ``X + Y`` for independent ``X, Y``."""
        return self._dist_op(("add", a, b), lambda: a.convolve(b))

    def rebucket(
        self,
        dist: DiscreteDistribution,
        n_buckets: int,
        strategy: str = "equidepth",
    ) -> DiscreteDistribution:
        """Cached mean-preserving coarsening of ``dist``."""
        if dist.n_buckets <= n_buckets:
            return dist
        return self._dist_op(
            ("rebucket", dist, n_buckets, strategy),
            lambda: dist.rebucket(n_buckets, strategy=strategy),
        )

    def _dist_op(
        self, key: Tuple, compute: Callable[[], DiscreteDistribution]
    ) -> DiscreteDistribution:
        stats = self._stats["dist_ops"]
        cached = self._dist_ops.get(key)
        if cached is not None:
            stats.hits += 1
            return cached
        stats.misses += 1
        result = compute()
        self._dist_ops[key] = result
        return result

    # ------------------------------------------------------------------
    # Layer 3: fast-path structures
    # ------------------------------------------------------------------

    def survival_table(self, memory: DiscreteDistribution) -> _SurvivalTable:
        """Memoized survival table for a memory distribution.

        One table serves every dag node and every optimizer invocation
        that shares this context — the amortisation the paper assumes
        when counting the fast paths' preprocessing as O(b_M) *total*.
        """
        stats = self._stats["survival_tables"]
        cached = self._survival.get(memory)
        if cached is not None:
            stats.hits += 1
            return cached
        stats.misses += 1
        table = _SurvivalTable(memory)
        self._survival[memory] = table
        return table

    # ------------------------------------------------------------------
    # Layer 4: step-cost memo (costers key by their full identity)
    # ------------------------------------------------------------------

    def step_cost(self, key: Tuple, compute: Callable[[], float]) -> float:
        """Memoized scalar step cost under a caller-supplied tuple key.

        Costers build keys from their complete parameter identity
        (objective kind, memory value/distribution, bucket caps, method,
        order flags, operand subsets), so two invocations can share a
        value only when every ingredient of the expectation is equal.
        The last two elements are the pair :meth:`step_costs` probes.
        """
        stats = self._stats["step_costs"]
        memo, pair = self._cost_memo.setdefault(key[:-2], {}), key[-2:]
        cached = memo.get(pair)
        if cached is not None:
            stats.hits += 1
            return cached
        stats.misses += 1
        value = compute()
        memo[pair] = value
        return value

    def step_costs(
        self,
        prefixes: Sequence[Tuple],
        pairs: Sequence[Tuple],
        compute: Callable[[List[List[Tuple]]], Iterable[Iterable[float]]],
    ) -> List[List[float]]:
        """Batch form of :meth:`step_cost` for a column, keys ``prefix +
        pair`` over a formula's prefix each: one list per prefix, aligned
        with ``pairs``.  Memoized keys are read; the missing pairs of
        every prefix (a repeated pair once) go to one ``compute`` call,
        which returns their values per prefix, stored.  The accounting is
        :meth:`step_cost`'s: a miss per computed value, else a hit.
        """
        memos = [self._cost_memo.setdefault(prefix, {}) for prefix in prefixes]
        distinct = dict.fromkeys(pairs)
        missing = [[pair for pair in distinct if pair not in memo] for memo in memos]
        computed = sum(map(len, missing))
        if computed:
            for memo, miss, values in zip(memos, missing, compute(missing)):
                memo.update(zip(miss, map(float, values)))
        stats = self._stats["step_costs"]
        stats.misses += computed
        stats.hits += len(pairs) * len(memos) - computed
        return [[memo[pair] for pair in pairs] for memo in memos]

    def has_step_cost(self, key: Tuple) -> bool:
        """True when ``key`` is already memoized (no counters touched)."""
        return key[-2:] in self._cost_memo.get(key[:-2], ())

    # ------------------------------------------------------------------
    # Layer 5: batched fast-path join expectations
    # ------------------------------------------------------------------

    def batched_join_costs(
        self,
        requests: Sequence[
            Tuple[JoinMethod, DiscreteDistribution, DiscreteDistribution]
        ],
        memory: DiscreteDistribution,
        batches: Optional[Tuple[PaddedBatch, PaddedBatch]] = None,
    ) -> List[float]:
        """``E[Φ]`` for many fast-path joins, one array kernel invocation.

        ``requests`` is a sequence of ``(method, left_dist, right_dist)``
        triples; the returned list is aligned with it.  Each triple is
        memoized under a value-based key, duplicate triples inside one
        call are computed once, and only the memo misses reach the
        vectorized kernel — with the survival table shared across the
        whole batch (the paper's C7 amortisation).  Every value is
        bit-identical to the equivalent single-pair
        :func:`~repro.core.expected_cost.expected_join_cost_fast` call,
        so batching can never change which plan a DP level picks.
        ``batches``: the requests' padded operands, if already built.
        """
        memo = self._cost_memo.setdefault(("fastjoin", memory), {})
        keys = list(map(tuple, requests))  # (method, left, right)
        firsts: Dict[Hashable, int] = {}  # missing key -> its first request
        stats = self._stats["batched_joins"]
        for i, key in enumerate(keys):
            if key in memo:
                stats.hits += 1
            else:
                firsts.setdefault(key, i)
        stats.misses += len(firsts)
        if firsts:
            rows = list(firsts.values())
            memo.update(zip(firsts, map(float, expected_join_costs_batched(
                [requests[i] for i in rows], memory, self.survival_table(memory),
                batches and tuple(batch.take(rows) for batch in batches),
            ))))
        return [memo[key] for key in keys]

    # ------------------------------------------------------------------
    # Layer 6: DP skeletons (cost-free enumeration state)
    # ------------------------------------------------------------------

    def skeleton(self, key: Tuple) -> Optional[Tuple]:
        """The DP skeleton kept under ``key``; ``None`` is a miss, whose run
        records one and keeps it (:meth:`keep_skeleton`)."""
        found = self._skeletons.get(key)
        self._stats["skeletons"].misses += found is None
        self._stats["skeletons"].hits += found is not None
        return found

    def keep_skeleton(self, key: Tuple, skeleton: Tuple) -> None:
        """Keep a DP skeleton for later runs on this context."""
        self._skeletons[key] = skeleton

    # ------------------------------------------------------------------
    # Observability
    # ------------------------------------------------------------------

    def stats(self) -> Dict[str, Dict[str, float]]:
        """Per-cache hit/miss counters (see :class:`CacheStats`)."""
        return {name: cs.as_dict() for name, cs in self._stats.items()}

    def total_hits(self) -> int:
        """Total cache hits across every cache (the headline number)."""
        return sum(cs.hits for cs in self._stats.values())

    def clear(self) -> None:
        """Drop every cached value (counters are reset too)."""
        self._sizes.clear()
        self._bounds.clear()
        self._size_dists.clear()
        self._dist_ops.clear()
        self._survival.clear()
        self._cost_memo.clear()
        self._skeletons.clear()
        for cs in self._stats.values():
            cs.hits = 0
            cs.misses = 0

    def __repr__(self) -> str:
        entries = (
            len(self._sizes)
            + len(self._bounds)
            + len(self._size_dists)
            + len(self._dist_ops)
            + len(self._survival)
            + sum(map(len, self._cost_memo.values()))
        )
        return (
            f"OptimizationContext({self.query!r}, entries={entries}, "
            f"hits={self.total_hits()})"
        )
