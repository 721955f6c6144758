"""Tests for CostModel: whole-plan costing, phases, expected costs."""

from __future__ import annotations

import pytest

from repro.core.distributions import uniform_over
from repro.core.markov import MarkovParameter, sticky_chain
from repro.costmodel import formulas
from repro.costmodel.model import DEFAULT_METHODS, CostModel
from repro.plans.nodes import Join, Plan, Scan, Sort
from repro.plans.properties import JoinMethod
from repro.plans.query import JoinPredicate, JoinQuery, RelationSpec

from .reference_plan_cost import ReferenceCostModel


def _sm_plan(example_query):
    return Plan(Join(Scan("B"), Scan("A"), JoinMethod.SORT_MERGE, "A=B"))


def _gh_sorted_plan(example_query):
    join = Join(Scan("B"), Scan("A"), JoinMethod.GRACE_HASH, "A=B")
    return Plan(Sort(child=join, sort_order="A=B"))


class TestPlanCost:
    def test_example_plan1_costs(self, example_query, cost_model):
        plan = _sm_plan(example_query)
        assert cost_model.plan_cost(plan, example_query, 2000.0) == 2_800_000.0
        assert cost_model.plan_cost(plan, example_query, 700.0) == 5_600_000.0

    def test_example_plan2_costs(self, example_query, cost_model):
        plan = _gh_sorted_plan(example_query)
        # GH 2 passes + write 3000 + sort(3000) = 2.8e6 + 3000 + 12000.
        assert cost_model.plan_cost(plan, example_query, 2000.0) == 2_815_000.0
        assert cost_model.plan_cost(plan, example_query, 700.0) == 2_815_000.0

    def test_root_join_output_not_written(self, example_query, cost_model):
        # The bare SM plan's cost is exactly the join formula: no write.
        plan = _sm_plan(example_query)
        assert cost_model.plan_cost(plan, example_query, 2000.0) == (
            formulas.sort_merge_cost(1_000_000, 400_000, 2000)
        )

    def test_non_root_join_output_written(self, three_way_query, cost_model):
        inner = Join(Scan("R"), Scan("S"), JoinMethod.GRACE_HASH, "R=S")
        plan = Plan(
            Join(inner, Scan("T"), JoinMethod.GRACE_HASH, "S=T")
        )
        m = 10_000.0
        inner_cost = formulas.grace_hash_cost(50_000, 8_000, m)
        inner_write = 800.0  # pages(R ⋈ S)
        outer_cost = formulas.grace_hash_cost(800, 1_000, m)
        assert cost_model.plan_cost(plan, three_way_query, m) == pytest.approx(
            inner_cost + inner_write + outer_cost
        )

    def test_filtered_scan_charged(self, cost_model):
        q = JoinQuery(
            [
                RelationSpec("X", pages=100.0, filter_selectivity=0.1),
                RelationSpec("Y", pages=50.0),
            ],
            [JoinPredicate("X", "Y", selectivity=1e-4)],
        )
        plan = Plan(Join(Scan("X"), Scan("Y"), JoinMethod.GRACE_HASH, "X=Y"))
        m = 1000.0
        # scan X: read 100 + write 10; join on (10, 50) pages.
        expected = 110.0 + formulas.grace_hash_cost(10.0, 50.0, m)
        assert cost_model.plan_cost(plan, q, m) == pytest.approx(expected)


class TestPhases:
    def test_phase_costs_sum_to_total(self, three_way_query, cost_model):
        plan = Plan(
            Join(
                Join(Scan("R"), Scan("S"), JoinMethod.SORT_MERGE, "R=S"),
                Scan("T"),
                JoinMethod.GRACE_HASH,
                "S=T",
            )
        )
        m = 777.0
        total = cost_model.plan_cost(plan, three_way_query, m)
        ref = ReferenceCostModel()  # the per-phase oracle
        parts = sum(
            ref.phase_cost(plan, three_way_query, k, m)
            for k in range(plan.n_phases)
        )
        assert parts == pytest.approx(total)

    def test_dynamic_cost_uses_per_phase_memory(self, three_way_query, cost_model):
        plan = Plan(
            Join(
                Join(Scan("R"), Scan("S"), JoinMethod.SORT_MERGE, "R=S"),
                Scan("T"),
                JoinMethod.SORT_MERGE,
                "S=T",
            )
        )
        hi, lo = 100_000.0, 10.0
        mixed = cost_model.plan_cost_dynamic(plan, three_way_query, [hi, lo])
        ref = ReferenceCostModel()  # the per-phase oracle
        phase0_hi = ref.phase_cost(plan, three_way_query, 0, hi)
        phase1_lo = ref.phase_cost(plan, three_way_query, 1, lo)
        assert mixed == pytest.approx(phase0_hi + phase1_lo)

    def test_dynamic_requires_enough_phases(self, three_way_query, cost_model):
        plan = Plan(
            Join(
                Join(Scan("R"), Scan("S"), JoinMethod.SORT_MERGE, "R=S"),
                Scan("T"),
                JoinMethod.SORT_MERGE,
                "S=T",
            )
        )
        with pytest.raises(ValueError):
            cost_model.plan_cost_dynamic(plan, three_way_query, [100.0])

    def test_static_is_constant_dynamic(self, three_way_query, cost_model):
        plan = Plan(
            Join(
                Join(Scan("R"), Scan("S"), JoinMethod.GRACE_HASH, "R=S"),
                Scan("T"),
                JoinMethod.NESTED_LOOP,
                "S=T",
            )
        )
        m = 555.0
        assert cost_model.plan_cost(plan, three_way_query, m) == pytest.approx(
            cost_model.plan_cost_dynamic(plan, three_way_query, [m, m])
        )

    def test_root_sort_charged_to_last_phase(self, example_query, cost_model):
        plan = _gh_sorted_plan(example_query)
        m = 2000.0
        ref = ReferenceCostModel()  # the per-phase oracle
        last = ref.phase_cost(plan, example_query, plan.n_phases - 1, m)
        assert last == cost_model.plan_cost(plan, example_query, m)


class TestExpectedCosts:
    def test_expected_cost_is_mixture(self, example_query, cost_model, bimodal_memory):
        plan = _sm_plan(example_query)
        e = cost_model.plan_expected_cost(plan, example_query, bimodal_memory)
        assert e == pytest.approx(0.8 * 2_800_000 + 0.2 * 5_600_000)

    def test_markov_equals_bruteforce(self, three_way_query, cost_model):
        chain = sticky_chain(uniform_over([50.0, 500.0, 5000.0]), 0.6)
        plan = Plan(
            Join(
                Join(Scan("R"), Scan("S"), JoinMethod.SORT_MERGE, "R=S"),
                Scan("T"),
                JoinMethod.GRACE_HASH,
                "S=T",
            )
        )
        marg = cost_model.plan_expected_cost_markov(plan, three_way_query, chain)
        brute = cost_model.plan_expected_cost_bruteforce(
            plan, three_way_query, chain
        )
        assert marg == pytest.approx(brute)

    def test_static_chain_matches_static_expected(
        self, three_way_query, cost_model, bimodal_memory
    ):
        chain = MarkovParameter.static(bimodal_memory)
        plan = Plan(
            Join(
                Join(Scan("R"), Scan("S"), JoinMethod.SORT_MERGE, "R=S"),
                Scan("T"),
                JoinMethod.SORT_MERGE,
                "S=T",
            )
        )
        # With a frozen chain, per-phase marginals are all the same, but
        # static expected cost correlates phases while the chain version
        # treats... no: a static chain IS perfectly correlated, and both
        # compute the same expectation because phase costs are additive.
        a = cost_model.plan_expected_cost_markov(plan, three_way_query, chain)
        b = cost_model.plan_expected_cost(plan, three_way_query, bimodal_memory)
        assert a == pytest.approx(b)


class TestInstrumentation:
    def test_eval_count_increments(self, example_query):
        cm = CostModel()
        cm.join_cost(JoinMethod.SORT_MERGE, 10.0, 10.0, 100.0)
        cm.sort_cost(10.0, 100.0)
        assert cm.eval_count == 2

    def test_eval_count_disabled(self):
        cm = CostModel(count_evaluations=False)
        cm.join_cost(JoinMethod.SORT_MERGE, 10.0, 10.0, 100.0)
        assert cm.eval_count == 0

    def test_reset(self):
        cm = CostModel()
        cm.join_cost(JoinMethod.SORT_MERGE, 10.0, 10.0, 100.0)
        cm.reset_counters()
        assert cm.eval_count == 0

    def test_requires_methods(self):
        with pytest.raises(ValueError):
            CostModel(methods=())

    def test_eval_count_disabled_for_a_list_call(self):
        cm = CostModel(count_evaluations=False)
        cm.join_costs(JoinMethod.SORT_MERGE, [10.0, 20.0], [10.0, 5.0], 100.0)
        assert cm.eval_count == 0

    @pytest.mark.parametrize("name", ("methods", "pipelined_methods"))
    def test_method_sets_are_read_only(self, name):
        cm = CostModel(pipelined_methods=[JoinMethod.NESTED_LOOP])
        before = getattr(cm, name)
        with pytest.raises(AttributeError):
            setattr(cm, name, frozenset())
        assert getattr(cm, name) is before
        cm.eval_count = 5  # the counters stay writable
        assert cm.eval_count == 5

    def test_default_methods_are_papers_trio(self):
        assert set(DEFAULT_METHODS) == {
            JoinMethod.NESTED_LOOP,
            JoinMethod.SORT_MERGE,
            JoinMethod.GRACE_HASH,
        }


class TestJoinCostsList:
    """``join_costs`` is the scalar formula per pair, looked up once."""

    OUTER = [0.0, 1.0, 7.0, 120.0, 999.0, 4096.0, 50_000.0, 1e6]
    INNER = [3.0, 1.0, 64.0, 8.0, 1000.0, 4096.0, 40.0, 4e5]
    FLAGS = [(False, False), (True, False), (False, True), (True, True)]

    @staticmethod
    def _scalar(cm, method, memory, lps, rps, pairs):
        if method is JoinMethod.SORT_MERGE and (lps or rps):
            return [
                cm.sort_merge_cost_ordered(o, i, memory, lps, rps)
                for o, i in pairs
            ]
        return [cm.join_cost(method, o, i, memory) for o, i in pairs]

    @pytest.mark.parametrize("method", list(JoinMethod))
    @pytest.mark.parametrize("memory", [1.5, 3.0, 40.0, 1002.0, 1e5])
    def test_equals_the_scalar_loop(self, method, memory):
        pairs = list(zip(self.OUTER, self.INNER))
        for lps, rps in self.FLAGS:
            listed, scalar = CostModel(), CostModel()
            got = listed.join_costs(
                method, self.OUTER, self.INNER, memory, lps, rps
            )
            assert got == self._scalar(scalar, method, memory, lps, rps, pairs)
            assert all(type(cost) is float for cost in got)
            assert listed.eval_count == scalar.eval_count == len(pairs)

    @pytest.mark.parametrize("flags", FLAGS)
    def test_bad_inputs_raise_what_the_scalar_raises(self, flags):
        cm = CostModel()
        for outer, inner, memory, match in (
            ([5.0, -1.0], [5.0, 5.0], 100.0, "non-negative"),
            ([5.0], [-2.0], 100.0, "non-negative"),
            ([5.0], [5.0], 0.0, "memory must be positive"),
            ([5.0], [5.0], -3.0, "memory must be positive"),
        ):
            for method in JoinMethod:
                with pytest.raises(ValueError, match=match):
                    cm.join_costs(method, outer, inner, memory, *flags)
                with pytest.raises(ValueError, match=match):
                    self._scalar(
                        CostModel(), method, memory, *flags, list(zip(outer, inner))
                    )

    def test_no_pairs_is_an_empty_list(self):
        cm = CostModel()
        for method in JoinMethod:
            for flags in self.FLAGS:
                assert cm.join_costs(method, [], [], 100.0, *flags) == []
        assert cm.eval_count == 0
