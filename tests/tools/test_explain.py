"""Tests for the EXPLAIN-style cost breakdown."""

from __future__ import annotations

import pytest

from repro.core.markov import sticky_chain
from repro.optimizer import optimize_algorithm_c
from repro.costmodel.model import CostModel
from repro.optimizer.facade import clear_context_cache, last_context
from repro.tools.explain import explain_costs, explain_query, render_explanation


class TestExplainCosts:
    def test_shares_sum_to_one(self, example_query, bimodal_memory):
        res = optimize_algorithm_c(example_query, bimodal_memory)
        lines = explain_costs(res.plan, example_query, bimodal_memory)
        assert sum(l.share for l in lines) == pytest.approx(1.0)

    def test_total_matches_plan_expected_cost(self, example_query, bimodal_memory):
        res = optimize_algorithm_c(example_query, bimodal_memory)
        lines = explain_costs(res.plan, example_query, bimodal_memory)
        cm = CostModel(count_evaluations=False)
        total = sum(l.expected_cost for l in lines)
        assert total == pytest.approx(
            cm.plan_expected_cost(res.plan, example_query, bimodal_memory)
        )

    def test_point_memory_accepted(self, example_query):
        from repro.core import point_mass

        res = optimize_algorithm_c(example_query, point_mass(2000.0))
        lines = explain_costs(res.plan, example_query, 2000.0)
        assert all(l.worst_cost == pytest.approx(l.expected_cost) for l in lines)

    def test_worst_at_least_expected(self, example_query, bimodal_memory):
        res = optimize_algorithm_c(example_query, bimodal_memory)
        for line in explain_costs(res.plan, example_query, bimodal_memory):
            assert line.worst_cost >= line.expected_cost - 1e-9

    def test_render_contains_every_operator(self, example_query, bimodal_memory):
        res = optimize_algorithm_c(example_query, bimodal_memory)
        lines = explain_costs(res.plan, example_query, bimodal_memory)
        text = render_explanation(lines)
        for line in lines:
            assert line.label in text

    def test_render_header_and_alignment(self, example_query, bimodal_memory):
        res = optimize_algorithm_c(example_query, bimodal_memory)
        lines = explain_costs(res.plan, example_query, bimodal_memory)
        rendered = render_explanation(lines).splitlines()
        header = rendered[0]
        for column in ("operator", "out pages", "E[cost]", "worst", "share"):
            assert column in header
        assert len(rendered) == len(lines) + 1
        # Child operators are indented under their parent.
        by_depth = {l.depth for l in lines}
        if len(by_depth) > 1:
            assert any(row.startswith("  ") for row in rendered[1:])

    def test_foreign_context_is_ignored(self, example_query, bimodal_memory,
                                        small_memory_dist):
        """A context built for a different query must not poison estimates."""
        import numpy as np

        from repro.core.context import OptimizationContext
        from repro.workloads.queries import star_query

        other = star_query(3, np.random.default_rng(5))
        foreign = OptimizationContext(other)
        assert not foreign.matches(example_query)
        res = optimize_algorithm_c(example_query, bimodal_memory)
        with_foreign = explain_costs(
            res.plan, example_query, bimodal_memory, context=foreign
        )
        without = explain_costs(res.plan, example_query, bimodal_memory)
        assert [l.out_pages for l in with_foreign] == [
            l.out_pages for l in without
        ]


class TestExplainQuery:
    def test_result_and_lines_agree(self, example_query, bimodal_memory):
        result, lines = explain_query(
            example_query, "lec", memory=bimodal_memory
        )
        assert result.plan.signature() == (
            optimize_algorithm_c(example_query, bimodal_memory).plan.signature()
        )
        assert sum(l.share for l in lines) == pytest.approx(1.0)
        total = sum(l.expected_cost for l in lines)
        cm = CostModel(count_evaluations=False)
        assert total == pytest.approx(
            cm.plan_expected_cost(result.plan, example_query, bimodal_memory)
        )

    def test_reuses_the_optimizer_context(self, example_query, bimodal_memory):
        clear_context_cache()
        explain_query(example_query, "lec", memory=bimodal_memory)
        ctx = last_context()
        assert ctx is not None and ctx.matches(example_query)

    def test_point_memory_via_lsc(self, example_query):
        result, lines = explain_query(example_query, "point", memory=2000.0)
        assert lines, "no cost lines returned"
        assert all(
            l.worst_cost == pytest.approx(l.expected_cost) for l in lines
        )
        assert result.objective == pytest.approx(
            sum(l.expected_cost for l in lines)
        )

    def test_forwards_facade_kwargs(self, example_query, bimodal_memory):
        result, _ = explain_query(
            example_query, "lec", memory=bimodal_memory, top_k=3
        )
        assert len(result.candidates) <= 3

    @pytest.mark.parametrize("objective, dynamic", [
        ("point", False), ("lec", False), ("lec", True), ("markov", True),
        ("multiparam", False), ("algorithm_a", False), ("algorithm_b", False),
    ])
    def test_every_objective_explains(
        self, objective, dynamic, example_query, bimodal_memory
    ):
        """The lines add up to the plan's cost under the memory given: a
        Markov memory charges each node under its phase's marginal."""
        memory = sticky_chain(bimodal_memory, 0.8) if dynamic else bimodal_memory
        result, lines = explain_query(example_query, objective, memory=memory)
        cm = CostModel(count_evaluations=False)
        if dynamic:
            whole = cm.plan_expected_cost_markov(result.plan, example_query, memory)
        else:
            whole = cm.plan_expected_cost(result.plan, example_query, memory)
        assert len(lines) == len(list(result.plan.nodes()))
        assert sum(l.expected_cost for l in lines) == pytest.approx(whole)
        assert all(l.worst_cost >= l.expected_cost * (1 - 1e-12) for l in lines)

    def test_bad_objective_propagates(self, example_query, bimodal_memory):
        from repro.optimizer.errors import OptimizerConfigError

        with pytest.raises(OptimizerConfigError):
            explain_query(example_query, "nope", memory=bimodal_memory)
