"""The shared optimization context: one memo layer for a whole query.

Every costing objective in this library re-derives the same intermediate
state: subset sizes and page-count distributions per relation subset,
and the survival tables behind the linear-time expected-cost paths.
Historically each coster rebuilt these privately on every
:meth:`~repro.optimizer.costers.Coster.bind`, so running several
optimizers over one query (Algorithms A-D, parametric region sweeps, the
experiment harness) repeated identical work many times over.

:class:`OptimizationContext` is the seam that removes that duplication.
It is created once per (catalog, cost-model, query) triple and threaded
through every layer — the costers, :class:`~repro.optimizer.systemr.
SystemRDP`, Algorithms A-D, the deferred-decision strategies, and the
:func:`repro.optimize` facade — memoizing five layers:

* **subset sizes** (``subset_size``) and **subset page-count
  distributions** (``size_distribution``), keyed by ``frozenset``
  of relation names (the distribution also by its bucket cap);
* **scalar step costs** (materialisation writes, enforcer sorts, a
  single ``join_step_cost``) via a generic namespaced memo that costers
  key by their full parameter identity, so repeated optimizations of the
  same query skip straight to the cached expectations;
* **level columns** (``column_costs(key, compute)``):
  the cost lists a DP level's coster call returned for one presorted-flag
  column, keyed by the coster's identity, its methods, the phase, the
  flags and the column's pairs.  A cold run pays one probe per column
  (a level names each of its pairs once, so a memo per step only
  missed); a warm run — the same query optimized again on this
  context, as a cluster worker does after a catalog bump — costs no
  step;
* **DP skeletons** — what a System-R run walks that depends on no cost
  (relation numbering, level masks, each mask's splits), keyed by
  (relation names, plan-space shape, cross products, join methods):
  recorded by the first run, replayed by later ones (Algorithms A/B).

A layer is kept only where a run reads it again.  The distribution
products, convolutions and rebucketings of size propagation, the
linear-time join kernel's results and the Chen & Schneider bounds are
computed where they are needed: measured over the answer corpus and the
benchmark streams, memos of them hit rarely or never and saved no time.
Survival tables need no layer: a memory distribution caches its own
suffix sums (:meth:`~repro.core.distributions.DiscreteDistribution.sf_arrays`),
so a second table over it costs two slices.

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
    Iterable,
    List,
    Optional,
    Sequence,
    Tuple,
)

from ..core.distributions import DiscreteDistribution
from ..plans.properties import JoinMethod
from .estimates import (
    SizeEstimate,
    subset_size,
    subset_size_bounds,
    subset_size_distribution,
)
from .expected_cost import _SurvivalTable, expected_join_costs_batched

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


class _Memo(dict):
    """One memo layer: its entries and their :class:`CacheStats`."""

    __slots__ = ("stats",)

    def __init__(self):
        super().__init__()
        self.stats = CacheStats()

    def probe(self, key, compute: Callable, *args):
        """The entry under ``key``, or ``compute(*args)`` kept under it;
        a hit or a miss is counted either way.  A ``compute`` that gives
        ``None`` keeps nothing.  Safe to race on: two runs missing one key
        store equal values."""
        found = self.get(key)
        if found is not None:
            self.stats.hits += 1
            return found
        self.stats.misses += 1
        found = compute(*args)
        if found is not None:
            self[key] = found
        return found


def query_fingerprint(query) -> Tuple:
    """A hashable digest of every statistic the optimizer reads.

    Two queries with equal fingerprints carry the same numbers bit for bit
    (distributions compare bytewise), so they are interchangeable for
    costing; one ulp moved anywhere changes the fingerprint, which is how
    the facade and the plan tiers tell a stale or another query apart.  A
    query is immutable: this is the value it took once, hashed once too.
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
    """

    def __init__(self, query):
        self.query = query
        self.fingerprint: Tuple = query_fingerprint(query)

        #: frozenset of names -> SizeEstimate
        self._sizes = _Memo()
        #: (frozenset of names, bucket cap) -> page-count distribution
        self._size_dists = _Memo()
        #: (coster identity, formula, operands) -> scalar step cost
        self._steps = _Memo()
        #: (coster identity, methods, phase, flags, pairs) -> cost lists
        self._columns = _Memo()
        #: (names, shape, cross products, methods) -> a DP skeleton
        self._skeletons = _Memo()
        self._memos: Dict[str, _Memo] = {
            "subset_sizes": self._sizes,
            "size_distributions": self._size_dists,
            "step_costs": self._steps,
            "columns": self._columns,
            "skeletons": self._skeletons,
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
    # Subset sizes and page-count distributions
    # ------------------------------------------------------------------

    def subset_size(self, rels: Iterable[str]) -> SizeEstimate:
        """Memoized point size estimate for the join over ``rels``."""
        key = frozenset(rels)
        return self._sizes.probe(key, subset_size, key, self.query)

    def subset_pages(self, rels: Iterable[str]) -> float:
        """Memoized point page count for the join over ``rels``."""
        return self.subset_size(rels).pages

    def subset_bounds(self, rels: Iterable[str]) -> Tuple[float, float]:
        """:func:`~repro.costmodel.estimates.subset_size_bounds` of ``rels``
        (no memo); a method because frozen ``bench/trace.py`` names it."""
        return subset_size_bounds(frozenset(rels), self.query)

    def size_distribution(
        self, rels: Iterable[str], max_buckets: int
    ) -> DiscreteDistribution:
        """Memoized page-count distribution for the join over ``rels``,
        rebucketed to at most ``max_buckets``."""
        names = frozenset(rels)
        return self._size_dists.probe(
            (names, max_buckets), subset_size_distribution, names, self.query, max_buckets
        )

    # ------------------------------------------------------------------
    # Distribution operations (no memo)
    # ------------------------------------------------------------------

    def product(
        self, a: DiscreteDistribution, b: DiscreteDistribution
    ) -> DiscreteDistribution:
        """``a.multiply(b)``; uncalled, kept because frozen ``bench/trace.py`` names it."""
        return a.multiply(b)

    def convolve(
        self, a: DiscreteDistribution, b: DiscreteDistribution
    ) -> DiscreteDistribution:
        """``a.convolve(b)``; uncalled, kept because frozen ``bench/trace.py`` names it."""
        return a.convolve(b)

    def rebucket(
        self,
        dist: DiscreteDistribution,
        n_buckets: int,
        strategy: str = "equidepth",
    ) -> DiscreteDistribution:
        """``dist.rebucket(...)``; uncalled, kept because frozen ``bench/trace.py`` names it."""
        return dist.rebucket(n_buckets, strategy=strategy)

    # ------------------------------------------------------------------
    # Survival tables and the linear-time kernel
    # ------------------------------------------------------------------

    def survival_table(self, memory: DiscreteDistribution) -> _SurvivalTable:
        """The survival table of a memory distribution (no memo: its
        suffix sums are cached on ``memory`` itself); a method because
        frozen ``bench/trace.py`` names it."""
        return _SurvivalTable(memory)

    def batched_join_costs(
        self,
        requests: Sequence[
            Tuple[JoinMethod, DiscreteDistribution, DiscreteDistribution]
        ],
        memory: DiscreteDistribution,
    ) -> List[float]:
        """:func:`~repro.costmodel.expected_cost.expected_join_costs_batched` over
        this context's survival table, as Python floats (no memo); a method
        because frozen ``bench/trace.py`` names it."""
        return expected_join_costs_batched(
            requests, memory, self.survival_table(memory)
        ).tolist()

    # ------------------------------------------------------------------
    # Step costs (costers key by their full identity)
    # ------------------------------------------------------------------

    def step_cost(self, key: Tuple, compute: Callable[[], float]) -> float:
        """Memoized scalar step cost under a caller-supplied tuple key.

        Costers build keys from their complete parameter identity
        (objective kind, memory value/distribution, bucket caps, method,
        order flags, operand subsets), so two invocations can share a
        value only when every ingredient of the expectation is equal.
        """
        return self._steps.probe(key, compute)

    def has_step_cost(self, key: Tuple) -> bool:
        """True when ``key`` is already memoized (no counters touched)."""
        return key in self._steps

    # ------------------------------------------------------------------
    # DP level columns and skeletons
    # ------------------------------------------------------------------

    def column_costs(
        self, key: Tuple, compute: Callable[[], List[List[float]]]
    ) -> List[List[float]]:
        """The cost lists of a DP level's column, kept under ``key``;
        ``compute()`` on a miss."""
        return self._columns.probe(key, compute)

    def skeleton(self, key: Tuple) -> Optional[Tuple]:
        """The DP skeleton kept under ``key``; ``None`` is a miss, whose run
        records one and keeps it (:meth:`keep_skeleton`)."""
        return self._skeletons.probe(key, lambda: None)

    def keep_skeleton(self, key: Tuple, skeleton: Tuple) -> None:
        """Keep a DP skeleton for later runs on this context."""
        self._skeletons[key] = skeleton

    # ------------------------------------------------------------------
    # Observability
    # ------------------------------------------------------------------

    def stats(self) -> Dict[str, Dict[str, float]]:
        """Per-cache hit/miss counters (see :class:`CacheStats`)."""
        return {name: memo.stats.as_dict() for name, memo in self._memos.items()}

    def total_hits(self) -> int:
        """Total cache hits across every cache (the headline number)."""
        return sum(memo.stats.hits for memo in self._memos.values())

    def clear(self) -> None:
        """Drop every cached value (counters are reset too)."""
        for memo in self._memos.values():
            memo.clear()
            memo.stats = CacheStats()

    def __repr__(self) -> str:
        entries = sum(map(len, self._memos.values()))
        return (
            f"OptimizationContext({self.query!r}, entries={entries}, "
            f"hits={self.total_hits()})"
        )
