"""Tests for LEC optimization under dependent parameters."""

from __future__ import annotations

import pytest

from repro.optimizer import optimize_algorithm_d
from repro.core.bayesnet import BayesNetError, DiscreteBayesNet
from repro.costmodel.model import DEFAULT_METHODS, CostModel
from repro.optimizer.dependent import (
    BayesNetCoster,
    optimize_dependent,
    plan_expected_cost_dependent,
)
from repro.optimizer.exhaustive import exhaustive_best
from repro.plans.query import JoinPredicate, JoinQuery, RelationSpec


@pytest.fixture
def query() -> JoinQuery:
    return JoinQuery(
        [
            RelationSpec("R", pages=50_000.0),
            RelationSpec("S", pages=8_000.0),
            RelationSpec("T", pages=1_000.0),
        ],
        [
            JoinPredicate("R", "S", selectivity=1.1e-7, label="R=S"),
            JoinPredicate("S", "T", selectivity=1e-6, label="S=T"),
        ],
        rows_per_page=100,
    )


def _correlated_net(strength: float) -> DiscreteBayesNet:
    """Load couples memory and the R=S selectivity with given strength."""
    net = DiscreteBayesNet()
    net.add_node("load", [0.0, 1.0], probs=[0.6, 0.4])
    lo, hi = 0.5 - strength / 2, 0.5 + strength / 2
    net.add_node(
        "M", [400.0, 2000.0], parents=["load"],
        cpt={(0.0,): [lo, hi], (1.0,): [hi, lo]},
    )
    net.add_node(
        "R=S", [1e-8, 4e-7], parents=["load"],
        cpt={(0.0,): [hi, lo], (1.0,): [lo, hi]},
    )
    return net


class TestBayesNetCoster:
    def test_requires_memory_variable(self, query):
        net = DiscreteBayesNet()
        net.add_node("x", [1.0], probs=[1.0])
        with pytest.raises(BayesNetError):
            BayesNetCoster(net, memory_var="M")

    def test_pages_given_uses_assignment(self, query):
        net = _correlated_net(0.8)
        coster = BayesNetCoster(net)
        coster.bind(query)
        lo = coster._pages_given(frozenset(["R", "S"]), {"R=S": 1e-8})
        hi = coster._pages_given(frozenset(["R", "S"]), {"R=S": 4e-7})
        assert hi > lo
        # Missing variable -> point estimate.
        point = coster._pages_given(frozenset(["R", "S"]), {})
        from repro.costmodel.estimates import subset_size

        assert point == subset_size(frozenset(["R", "S"]), query).pages


class TestOptimizeDependent:
    @pytest.mark.parametrize("strength", [0.0, 0.4, 0.9])
    def test_dp_matches_exhaustive(self, query, strength):
        net = _correlated_net(strength)
        cm = CostModel(count_evaluations=False)
        res = optimize_dependent(query, net)
        truth, _ = exhaustive_best(
            query,
            lambda p: plan_expected_cost_dependent(p, query, net, cost_model=cm),
            DEFAULT_METHODS,
        )
        assert res.objective == pytest.approx(truth.objective)

    def test_objective_matches_evaluator(self, query):
        net = _correlated_net(0.7)
        res = optimize_dependent(query, net)
        assert plan_expected_cost_dependent(
            res.plan, query, net
        ) == pytest.approx(res.objective)

    def test_independent_net_matches_algorithm_d_marginals(self, query):
        """With zero coupling, the dependent optimizer must agree with
        Algorithm D run on the marginals (no rebucketing error here: the
        supports are tiny)."""
        net = _correlated_net(0.0)
        dep = optimize_dependent(query, net)
        mem = net.marginal("M")
        sel = net.marginal("R=S")
        q_ind = JoinQuery(
            list(query.relations),
            [
                JoinPredicate(
                    "R", "S", selectivity=sel.mean(),
                    selectivity_dist=sel, label="R=S",
                ),
                JoinPredicate("S", "T", selectivity=1e-6, label="S=T"),
            ],
            rows_per_page=100,
        )
        ind = optimize_algorithm_d(q_ind, mem, max_buckets=32)
        assert dep.objective == pytest.approx(ind.objective)

    def test_dependence_never_hurts_the_informed_optimizer(self, query):
        """The dependent optimizer's plan, scored under the true joint,
        is never worse than the independence-assuming plan scored under
        the same truth."""
        for strength in (0.3, 0.6, 0.9):
            net = _correlated_net(strength)
            cm = CostModel(count_evaluations=False)
            dep = optimize_dependent(query, net)
            mem = net.marginal("M")
            sel = net.marginal("R=S")
            q_ind = JoinQuery(
                list(query.relations),
                [
                    JoinPredicate(
                        "R", "S", selectivity=sel.mean(),
                        selectivity_dist=sel, label="R=S",
                    ),
                    JoinPredicate("S", "T", selectivity=1e-6, label="S=T"),
                ],
                rows_per_page=100,
            )
            ind = optimize_algorithm_d(q_ind, mem, max_buckets=32)
            e_ind = plan_expected_cost_dependent(
                ind.plan, query, net, cost_model=cm
            )
            assert dep.objective <= e_ind + 1e-9

    def test_conditioned_net_reoptimizes(self, query):
        """Observing the load at start-up sharpens the joint; optimizing
        against the conditioned net is the start-up-time variant."""
        net = _correlated_net(0.9)
        calm = optimize_dependent(query, net.condition({"load": 0.0}))
        busy = optimize_dependent(query, net.condition({"load": 1.0}))
        blind = optimize_dependent(query, net)
        # The conditioned objectives must bracket the blind one.
        p0 = net.marginal("load").prob_of(0.0)
        mix = p0 * calm.objective + (1 - p0) * busy.objective
        assert mix <= blind.objective + 1e-9
