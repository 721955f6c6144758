"""OptimizationContext: memoization layers, fingerprints, staleness.

That a shared or a stale context answers as a fresh one is the warm
property (``tests/corpus/test_warm.py``).
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.context import CacheStats, OptimizationContext, query_fingerprint
from repro.core.distributions import DiscreteDistribution, two_point
from repro.core.expected_cost import expected_sort_merge_cost
from repro.costmodel.estimates import subset_size
from repro.plans.query import JoinPredicate, JoinQuery, RelationSpec


class TestFingerprint:
    def test_changes_with_any_statistic(self, three_way_query):
        base = query_fingerprint(three_way_query)
        bigger = JoinQuery(
            relations=[
                RelationSpec(name="R", pages=60_000.0),
                *three_way_query.relations[1:],
            ],
            predicates=list(three_way_query.predicates),
            rows_per_page=three_way_query.rows_per_page,
        )
        assert query_fingerprint(bigger) != base
        resel = JoinQuery(
            relations=list(three_way_query.relations),
            predicates=[
                JoinPredicate(left="R", right="S", selectivity=3e-8, label="R=S"),
                three_way_query.predicates[1],
            ],
            rows_per_page=three_way_query.rows_per_page,
        )
        assert query_fingerprint(resel) != base

    def test_is_hashable(self, three_way_query):
        hash(query_fingerprint(three_way_query))


class TestSizeCaches:
    def test_subset_pages(self, three_way_query):
        ctx = OptimizationContext(three_way_query)
        rels = frozenset({"S", "T"})
        assert ctx.subset_pages(rels) == subset_size(rels, three_way_query).pages

class TestDistributionOpCache:
    def test_value_keyed_product(self):
        query = JoinQuery(
            relations=[RelationSpec(name="A", pages=10.0)],
            predicates=[],
        )
        ctx = OptimizationContext(query)
        a1 = DiscreteDistribution([1.0, 2.0], [0.5, 0.5])
        a2 = DiscreteDistribution([1.0, 2.0], [0.5, 0.5])  # equal, distinct object
        b = DiscreteDistribution([10.0, 20.0], [0.3, 0.7])
        first = ctx.product(a1, b)
        second = ctx.product(a2, b)
        assert second is first
        assert ctx.stats()["dist_ops"]["hits"] == 1

    def test_convolve_and_rebucket(self):
        query = JoinQuery(relations=[RelationSpec(name="A", pages=10.0)], predicates=[])
        ctx = OptimizationContext(query)
        a = DiscreteDistribution([1.0, 2.0, 3.0], [0.2, 0.3, 0.5])
        b = DiscreteDistribution([5.0, 7.0], [0.4, 0.6])
        conv = ctx.convolve(a, b)
        assert conv.mean() == pytest.approx(a.mean() + b.mean())
        wide = DiscreteDistribution(
            np.arange(1.0, 21.0), np.full(20, 0.05)
        )
        small = ctx.rebucket(wide, 4)
        assert small.n_buckets <= 4
        assert small.mean() == pytest.approx(wide.mean())
        # Already-small distributions pass through without a cache entry.
        assert ctx.rebucket(a, 8) is a


class TestSurvivalTable:
    def test_shared_across_lookups(self, three_way_query, bimodal_memory):
        ctx = OptimizationContext(three_way_query)
        t1 = ctx.survival_table(bimodal_memory)
        t2 = ctx.survival_table(bimodal_memory)
        assert t2 is t1
        assert ctx.stats()["survival_tables"]["hits"] == 1

    def test_produces_correct_expectations(self, three_way_query, bimodal_memory):
        ctx = OptimizationContext(three_way_query)
        table = ctx.survival_table(bimodal_memory)
        left = two_point(1200.0, 0.5, 800.0)
        right = two_point(600.0, 0.5, 400.0)
        fast = expected_sort_merge_cost(left, right, bimodal_memory, survival=table)
        naive = expected_sort_merge_cost(left, right, bimodal_memory)
        assert fast == pytest.approx(naive)


class TestStepCostMemo:
    def test_compute_once(self, three_way_query):
        ctx = OptimizationContext(three_way_query)
        calls = []

        def compute():
            calls.append(1)
            return 42.0

        assert ctx.step_cost(("k", 1), compute) == 42.0
        assert ctx.step_cost(("k", 1), compute) == 42.0
        assert len(calls) == 1
        assert ctx.stats()["step_costs"]["hits"] == 1

    def test_keys_are_whole_tuples(self, three_way_query):
        # One flat memo: a key is found only whole, and has_step_cost
        # reads it without touching the counters.
        ctx = OptimizationContext(three_way_query)
        prefix = ("point", 1200.0, "join", "GH", False, False)
        a, b, c = frozenset("R"), frozenset("S"), frozenset("T")
        assert ctx.step_cost(prefix + (a, b), lambda: 7.0) == 7.0
        assert ctx.step_cost(prefix + (a, b), lambda: pytest.fail("memoized")) == 7.0
        assert ctx.step_cost(prefix + (b, a), lambda: 8.0) == 8.0
        assert ctx.has_step_cost(prefix + (a, b))
        assert not ctx.has_step_cost(prefix + (a, c))
        assert not ctx.has_step_cost(("other",) + prefix[1:] + (a, b))
        assert ctx.stats()["step_costs"] == {"hits": 1, "misses": 2, "hit_rate": 1 / 3}

    def test_repr_counts_leaves_and_clear_empties(self, three_way_query):
        ctx = OptimizationContext(three_way_query)
        prefix = ("expected", "m", "join", "NL", False, False)
        pairs = [(frozenset("R"), frozenset("S")), (frozenset("S"), frozenset("T"))]
        for pair in pairs:
            ctx.step_cost(prefix + pair, lambda: 1.0)
        ctx.step_cost(("expected", "m", "sort", frozenset("RS")), lambda: 2.0)
        ctx.step_cost(("expected", "m", "write", frozenset("RS")), lambda: 3.0)
        assert "entries=4," in repr(ctx)  # four step costs
        ctx.clear()
        assert "entries=0," in repr(ctx)
        assert not ctx.has_step_cost(prefix + pairs[0])
        assert ctx.step_cost(prefix + pairs[0], lambda: 5.0) == 5.0


class TestObservability:
    def test_cache_stats_math(self):
        cs = CacheStats(hits=3, misses=1)
        assert cs.lookups == 4
        assert cs.hit_rate == pytest.approx(0.75)
        assert CacheStats().hit_rate == 0.0
        assert cs.as_dict() == {"hits": 3, "misses": 1, "hit_rate": 0.75}

    def test_total_hits_and_clear(self, three_way_query):
        ctx = OptimizationContext(three_way_query)
        rels = frozenset({"R", "S"})
        ctx.subset_size(rels)
        ctx.subset_size(rels)
        assert ctx.total_hits() == 1
        ctx.clear()
        assert ctx.total_hits() == 0
        assert ctx.stats()["subset_sizes"]["misses"] == 0

    def test_repr_mentions_entries(self, three_way_query):
        ctx = OptimizationContext(three_way_query)
        ctx.subset_size(frozenset({"R"}))
        assert "entries=" in repr(ctx)
