"""Tests for the System-R dynamic program (all costers, both plan spaces)."""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.distributions import DiscreteDistribution, point_mass
from repro.core.markov import sticky_chain
from repro.costmodel.model import DEFAULT_METHODS, CostModel
from repro.optimizer.costers import ExpectedCoster, MarkovCoster, PointCoster
from repro.optimizer.exhaustive import exhaustive_best
from repro.optimizer.result import OptimizerStats
from repro.optimizer.systemr import SystemRDP
from repro.plans.nodes import Join, Scan, Sort
from repro.plans.properties import JoinMethod, order_from_join
from repro.plans.query import JoinPredicate, JoinQuery, QueryError, RelationSpec
from repro.plans.space import PlanSpace
from repro.workloads.queries import chain_query, clique_query, star_query, union_query

MEMORY_3 = DiscreteDistribution([400.0, 1500.0, 4000.0], [0.25, 0.5, 0.25])


class TestBasics:
    def test_single_relation_query(self):
        q = JoinQuery([RelationSpec("A", pages=10.0)])
        res = SystemRDP(PointCoster(100.0)).optimize(q)
        assert res.plan.relations() == frozenset({"A"})
        assert res.objective == 0.0  # unfiltered scan is free

    def test_two_relation_picks_cheapest_method(self, example_query):
        res = SystemRDP(PointCoster(2000.0)).optimize(example_query)
        # At 2000 pages SM wins (order for free): Theorem 2.1 behaviour.
        assert "SM" in res.plan.signature()
        assert res.objective == 2_800_000.0

    def test_objective_matches_independent_plan_cost(self, example_query):
        cm = CostModel()
        res = SystemRDP(PointCoster(700.0, cost_model=cm)).optimize(example_query)
        assert cm.plan_cost(res.plan, example_query, 700.0) == pytest.approx(
            res.objective
        )

    def test_disconnected_query_rejected_without_cross_products(self):
        q = JoinQuery(
            [RelationSpec("A", pages=10.0), RelationSpec("B", pages=10.0)]
        )
        with pytest.raises(QueryError):
            SystemRDP(PointCoster(100.0)).optimize(q)

    def test_cross_products_allowed_when_enabled(self):
        q = JoinQuery(
            [RelationSpec("A", pages=10.0), RelationSpec("B", pages=10.0)]
        )
        res = SystemRDP(
            PointCoster(100.0), allow_cross_products=True
        ).optimize(q)
        assert res.plan.relations() == frozenset({"A", "B"})

    def test_enforcer_sort_added_only_when_needed(self, example_query):
        res = SystemRDP(PointCoster(700.0)).optimize(example_query)
        # At 700 pages the LSC winner is GH + sort.
        assert isinstance(res.plan.root, Sort)

    def test_stats_populated(self, three_way_query):
        res = SystemRDP(PointCoster(500.0)).optimize(three_way_query)
        assert res.stats.subsets_explored >= 3
        assert res.stats.entries_offered > 0
        assert res.stats.formula_evaluations > 0

    def test_invalid_arguments(self):
        with pytest.raises(ValueError):
            SystemRDP(PointCoster(10.0), plan_space="star")
        with pytest.raises(ValueError):
            SystemRDP(PointCoster(10.0), top_k=0)

    def test_markov_coster_rejects_bushy(self, bimodal_memory):
        chain = sticky_chain(bimodal_memory, 0.5)
        with pytest.raises(ValueError):
            SystemRDP(MarkovCoster(chain), plan_space="bushy")


class TestAgainstExhaustive:
    """The DP must equal brute-force enumeration over left-deep plans."""

    @pytest.mark.parametrize("seed", range(6))
    def test_point_coster(self, seed):
        rng = np.random.default_rng(seed)
        q = chain_query(4, rng, require_order=bool(seed % 2))
        cm = CostModel(count_evaluations=False)
        res = SystemRDP(PointCoster(900.0)).optimize(q)
        best, _ = exhaustive_best(
            q, lambda p: cm.plan_cost(p, q, 900.0), DEFAULT_METHODS
        )
        assert res.objective == pytest.approx(best.objective)

    @pytest.mark.parametrize("seed", range(6))
    def test_expected_coster(self, seed, small_memory_dist):
        rng = np.random.default_rng(100 + seed)
        q = star_query(4, rng, require_order=bool(seed % 2))
        cm = CostModel(count_evaluations=False)
        res = SystemRDP(ExpectedCoster(small_memory_dist)).optimize(q)
        best, _ = exhaustive_best(
            q,
            lambda p: cm.plan_expected_cost(p, q, small_memory_dist),
            DEFAULT_METHODS,
        )
        assert res.objective == pytest.approx(best.objective)

    @pytest.mark.parametrize("seed", range(4))
    def test_markov_coster(self, seed, small_memory_dist):
        rng = np.random.default_rng(200 + seed)
        q = chain_query(4, rng)
        chain = sticky_chain(small_memory_dist, 0.5 + 0.1 * seed)
        cm = CostModel(count_evaluations=False)
        res = SystemRDP(MarkovCoster(chain)).optimize(q)
        best, _ = exhaustive_best(
            q,
            lambda p: cm.plan_expected_cost_markov(p, q, chain),
            DEFAULT_METHODS,
        )
        assert res.objective == pytest.approx(best.objective)

    def test_clique_query(self, small_memory_dist):
        rng = np.random.default_rng(17)
        q = clique_query(4, rng)
        cm = CostModel(count_evaluations=False)
        res = SystemRDP(ExpectedCoster(small_memory_dist)).optimize(q)
        best, _ = exhaustive_best(
            q,
            lambda p: cm.plan_expected_cost(p, q, small_memory_dist),
            DEFAULT_METHODS,
        )
        assert res.objective == pytest.approx(best.objective)


class TestTopK:
    def test_candidates_sorted_and_distinct(self, three_way_query):
        res = SystemRDP(PointCoster(700.0), top_k=5).optimize(three_way_query)
        objectives = [c.objective for c in res.candidates]
        assert objectives == sorted(objectives)
        signatures = [c.plan.signature() for c in res.candidates]
        assert len(set(signatures)) == len(signatures)

    def test_topk_includes_true_runner_up(self, three_way_query):
        cm = CostModel(count_evaluations=False)
        res = SystemRDP(PointCoster(700.0), top_k=4).optimize(three_way_query)
        _, all_plans = exhaustive_best(
            three_way_query,
            lambda p: cm.plan_cost(p, three_way_query, 700.0),
            DEFAULT_METHODS,
        )
        # The DP's best and second-best must match the exhaustive ranking.
        assert res.candidates[0].objective == pytest.approx(all_plans[0].objective)
        assert res.candidates[1].objective == pytest.approx(all_plans[1].objective)

    def test_topk_one_returns_single_candidate(self, three_way_query):
        res = SystemRDP(PointCoster(700.0), top_k=1).optimize(three_way_query)
        assert len(res.candidates) == 1


    @pytest.mark.parametrize("space", ["zig-zag", "bushy"])
    @pytest.mark.parametrize(
        "make, n, methods",
        [
            (clique_query, 4, DEFAULT_METHODS),
            # Two methods keep the 5-relation enumeration to seconds.
            (chain_query, 5, (JoinMethod.SORT_MERGE, JoinMethod.GRACE_HASH)),
        ],
        ids=["clique4", "chain5-sm-gh"],
    )
    def test_top3_on_enlarged_spaces_is_the_exhaustive_top3(
        self, space, make, n, methods, small_memory_dist
    ):
        q = make(n, np.random.default_rng(40 + n))
        cm = CostModel(methods, count_evaluations=False)
        mean = small_memory_dist.mean()
        for coster, objective in (
            (PointCoster(mean, cm), lambda p: cm.plan_cost(p, q, mean)),
            (
                ExpectedCoster(small_memory_dist, cm),
                lambda p: cm.plan_expected_cost(p, q, small_memory_dist),
            ),
        ):
            res = SystemRDP(coster, plan_space=space, top_k=3).optimize(q)
            _, ranked = exhaustive_best(q, objective, methods, space=space)
            assert [c.objective for c in res.candidates] == pytest.approx(
                [c.objective for c in ranked[:3]]
            )
            assert len({c.plan.signature() for c in res.candidates}) == 3


class TestTieBreak:
    """Equal costs are settled by first arrival, so the enumeration
    order is observable.  ``T1``/``T2`` are twins (and at this memory NL
    and GH tie as well); the expected lists were recorded with the
    frozenset-partition DP that preceded the integer-mask one."""

    EXPECTED = {
        "left-deep": [
            "(((M NL K) GH T2) GH T1)",
            "(((M GH K) GH T2) GH T1)",
            "(((K NL M) GH T2) GH T1)",
        ],
        "zig-zag": [
            "(((M NL K) GH T2) GH T1)",
            "(((M GH K) GH T2) GH T1)",
            "(((K NL M) GH T2) GH T1)",
        ],
        "bushy": [
            "(T1 GH ((K NL M) GH T2))",
            "(T1 GH ((K GH M) GH T2))",
            "(T1 GH ((M NL K) GH T2))",
        ],
    }

    @pytest.mark.parametrize("space", sorted(EXPECTED))
    def test_tied_plans_keep_their_winner(self, space):
        q = JoinQuery(
            [
                RelationSpec("T2", pages=4000.0),
                RelationSpec("M", pages=90000.0),
                RelationSpec("T1", pages=4000.0),
                RelationSpec("K", pages=700.0),
            ],
            [
                JoinPredicate("M", "T2", selectivity=1e-6),
                JoinPredicate("T1", "M", selectivity=1e-6),
                JoinPredicate("K", "M", selectivity=3e-6),
            ],
        )
        best = SystemRDP(PointCoster(900.0), plan_space=space).optimize(q)
        assert best.plan.signature() == self.EXPECTED[space][0]
        top = SystemRDP(PointCoster(900.0), plan_space=space, top_k=3).optimize(q)
        assert [c.plan.signature() for c in top.candidates] == self.EXPECTED[space]
        assert {c.objective for c in top.candidates} == {186080.0}


class TestBushy:
    def test_bushy_never_worse_than_left_deep(self, small_memory_dist):
        rng = np.random.default_rng(5)
        for _ in range(4):
            q = clique_query(4, rng)
            ld = SystemRDP(ExpectedCoster(small_memory_dist)).optimize(q)
            bushy = SystemRDP(
                ExpectedCoster(small_memory_dist), plan_space="bushy"
            ).optimize(q)
            assert bushy.objective <= ld.objective + 1e-6

    def test_bushy_objective_matches_plan_cost(self, small_memory_dist):
        rng = np.random.default_rng(9)
        q = clique_query(4, rng)
        cm = CostModel()
        res = SystemRDP(
            ExpectedCoster(small_memory_dist, cost_model=cm), plan_space="bushy"
        ).optimize(q)
        eval_cm = CostModel(count_evaluations=False)
        assert eval_cm.plan_expected_cost(
            res.plan, q, small_memory_dist
        ) == pytest.approx(res.objective)

    def test_bushy_can_beat_left_deep_somewhere(self):
        # Construct a clique where joining two small relations first on
        # each side is the winner.
        q = JoinQuery(
            [
                RelationSpec("A", pages=100_000.0),
                RelationSpec("B", pages=90_000.0),
                RelationSpec("C", pages=110_000.0),
                RelationSpec("D", pages=95_000.0),
            ],
            [
                JoinPredicate("A", "B", selectivity=1e-10),
                JoinPredicate("C", "D", selectivity=1e-10),
                JoinPredicate("B", "C", selectivity=1e-10),
                JoinPredicate("A", "D", selectivity=1e-10),
            ],
        )
        mem = point_mass(500.0)
        ld = SystemRDP(ExpectedCoster(mem)).optimize(q)
        bushy = SystemRDP(ExpectedCoster(mem), plan_space="bushy").optimize(q)
        assert bushy.objective <= ld.objective
        assert not bushy.plan.is_left_deep() or (
            bushy.objective == pytest.approx(ld.objective)
        )


class TestBackPointers:
    """An admitted entry is a back-pointer: ``PlanSpace.join`` runs only
    when a retained candidate's plan is asked for, once per entry."""

    @staticmethod
    def _counted(monkeypatch, engine):
        """Count ``PlanSpace.join`` calls; fail on one made inside the DP."""
        calls = []
        real_join, real_dp = PlanSpace.join, engine._run_dp

        def join(self, *args, **kwargs):
            calls.append(args)
            return real_join(self, *args, **kwargs)

        def run_dp(*args, **kwargs):
            before = len(calls)
            table = real_dp(*args, **kwargs)
            assert len(calls) == before, "a Join was built during _run_dp"
            return table

        monkeypatch.setattr(PlanSpace, "join", join)
        monkeypatch.setattr(engine, "_run_dp", run_dp)
        return calls

    @pytest.mark.parametrize("space", ["left-deep", "zig-zag", "bushy"])
    def test_top3_on_a_shared_attribute_chain(self, monkeypatch, space):
        query = chain_query(
            6, np.random.default_rng(5), shared_attribute=True, require_order=True
        )
        engine = SystemRDP(ExpectedCoster(MEMORY_3), plan_space=space, top_k=3)
        calls = self._counted(monkeypatch, engine)
        result = engine.optimize(query)
        assert len(result.candidates) == 3
        assert all(engine.space.admits(c.plan) for c in result.candidates)
        # Only what is returned is built, a shared subtree once: a node
        # that two candidates have in common is one object.
        built = {}
        for choice in result.candidates:
            for node in choice.plan.nodes():
                if isinstance(node, (Join, Scan)):
                    assert built.setdefault(node.signature(), node) is node
        joins = [n for n in built.values() if isinstance(n, Join)]
        assert len(calls) == len(joins) <= 3 * (query.n_relations - 1)
        assert len(joins) < 3 * (query.n_relations - 1)  # something was shared

    def test_spju_block(self, monkeypatch):
        block = union_query(2, 4, np.random.default_rng(9), distinct=True)
        engine = SystemRDP(ExpectedCoster(MEMORY_3), plan_space="spju", top_k=3)
        calls = self._counted(monkeypatch, engine)
        result = engine.optimize(block)
        assert engine.space.admits(result.plan)
        assert [engine.space.admits(c.plan) for c in result.candidates] == [True]
        # One winner per arm is materialised: n - 1 joins each.
        assert len(calls) == sum(len(arm.relations) - 1 for arm in block.arms)

    def test_entry_node_is_built_once_and_keeps_its_attributes(self):
        query = chain_query(4, np.random.default_rng(2))
        engine = SystemRDP(PointCoster(800.0), plan_space="bushy")
        engine.coster.bind(query)
        table = engine._run_dp(query, query.relation_names(), OptimizerStats())
        best = min(table[0b1111].values(), key=lambda b: b.costs[0])
        entry = best.entries[0]
        assert entry._node is None and entry.source[0] is engine.space
        node = entry.node
        assert entry.node is node and isinstance(node, Join)
        assert node.left is entry.source[1].node and node.right is entry.source[2].node
        assert entry.cost == best.costs[0]
        assert entry.order == order_from_join(node.method, node.order_label)
