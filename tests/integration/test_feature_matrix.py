"""Hardening: DP-vs-exhaustive equality with every feature combination.

The individual features — access paths, interesting-order equivalence
classes, pipelined nested loops, required orders, uncertain sizes — each
have their own exactness tests.  These property tests turn them on *in
combination* on random queries and require the DP to keep matching
independent exhaustive enumeration, plus Monte-Carlo validation of the
dependent (Bayes-net) objective.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.bayesnet import DiscreteBayesNet
from repro.core.distributions import DiscreteDistribution
from repro.core.floats import COST_REL_TOL
from repro.costmodel.model import DEFAULT_METHODS, CostModel
from repro.optimizer.costers import ExpectedCoster
from repro.optimizer.dependent import (
    optimize_dependent,
    plan_expected_cost_dependent,
)
from repro.optimizer.exhaustive import exhaustive_best
from repro.optimizer.systemr import SystemRDP
from repro.plans.properties import JoinMethod
from repro.plans.query import IndexInfo, JoinPredicate, JoinQuery, RelationSpec


@st.composite
def featureful_query(draw):
    """Random query exercising filters, indexes, classes and orders."""
    seed = draw(st.integers(0, 2**31))
    rng = np.random.default_rng(seed)
    n = draw(st.integers(2, 4))
    shared = draw(st.booleans())
    with_filters = draw(st.booleans())
    with_index = draw(st.booleans())
    require_order = draw(st.booleans())

    relations = []
    for i in range(n):
        pages = float(np.round(np.exp(rng.uniform(np.log(100), np.log(200000)))))
        fsel = float(rng.uniform(0.05, 0.5)) if with_filters and i == 0 else 1.0
        relations.append(
            RelationSpec(
                name=f"R{i}",
                pages=max(1.0, pages),
                filter_selectivity=fsel,
                index=IndexInfo(height=2, clustered=bool(rng.integers(2)))
                if with_index and fsel < 1.0
                else None,
            )
        )
    preds = []
    for i in range(n - 1):
        sel = 10 ** rng.uniform(-9.5, -6.0)
        preds.append(
            JoinPredicate(
                f"R{i}",
                f"R{i+1}",
                selectivity=float(sel),
                equiv_class="k" if shared else None,
            )
        )
    order = preds[0].order_label if (require_order and preds) else None
    query = JoinQuery(relations, preds, required_order=order)

    b = draw(st.integers(1, 4))
    vals = np.sort(rng.uniform(20.0, 6000.0, size=b))
    memory = DiscreteDistribution(vals, rng.dirichlet(np.ones(b)))
    pipelined = draw(st.booleans())
    return query, memory, pipelined


class TestFeatureMatrix:
    @given(qmp=featureful_query())
    @settings(max_examples=40, deadline=None)
    def test_dp_equals_exhaustive_under_any_feature_mix(self, qmp):
        query, memory, pipelined = qmp
        pipe = [JoinMethod.NESTED_LOOP] if pipelined else []
        coster = ExpectedCoster(
            memory, cost_model=CostModel(pipelined_methods=pipe)
        )
        res = SystemRDP(coster).optimize(query)
        eval_cm = CostModel(count_evaluations=False, pipelined_methods=pipe)
        truth, _ = exhaustive_best(
            query,
            lambda p: eval_cm.plan_expected_cost(p, query, memory),
            DEFAULT_METHODS,
        )
        assert res.objective == pytest.approx(truth.objective, rel=COST_REL_TOL)

    @given(qmp=featureful_query())
    @settings(max_examples=30, deadline=None)
    def test_objective_always_matches_independent_costing(self, qmp):
        query, memory, pipelined = qmp
        pipe = [JoinMethod.NESTED_LOOP] if pipelined else []
        coster = ExpectedCoster(
            memory, cost_model=CostModel(pipelined_methods=pipe)
        )
        res = SystemRDP(coster).optimize(query)
        eval_cm = CostModel(count_evaluations=False, pipelined_methods=pipe)
        assert eval_cm.plan_expected_cost(
            res.plan, query, memory
        ) == pytest.approx(res.objective, rel=COST_REL_TOL)


class TestDependentMonteCarlo:
    def test_dependent_objective_matches_sampling(self):
        """E[Φ] under the Bayes net == Monte-Carlo over net samples."""
        net = DiscreteBayesNet()
        net.add_node("load", [0.0, 1.0], probs=[0.6, 0.4])
        net.add_node(
            "M", [300.0, 2000.0], parents=["load"],
            cpt={(0.0,): [0.2, 0.8], (1.0,): [0.8, 0.2]},
        )
        net.add_node(
            "R=S", [1e-8, 3e-7], parents=["load"],
            cpt={(0.0,): [0.7, 0.3], (1.0,): [0.2, 0.8]},
        )
        query = JoinQuery(
            [
                RelationSpec("R", pages=40_000.0),
                RelationSpec("S", pages=6_000.0),
                RelationSpec("T", pages=900.0),
            ],
            [
                JoinPredicate("R", "S", selectivity=1e-7, label="R=S"),
                JoinPredicate("S", "T", selectivity=1e-6, label="S=T"),
            ],
        )
        res = optimize_dependent(query, net)
        analytic = plan_expected_cost_dependent(res.plan, query, net)

        # Monte Carlo: sample joint assignments, realize the world, cost.
        rng = np.random.default_rng(0)
        cm = CostModel(count_evaluations=False)
        total = 0.0
        trials = 4000
        for _ in range(trials):
            a = net.sample(rng)
            world = JoinQuery(
                list(query.relations),
                [
                    JoinPredicate(
                        "R", "S", selectivity=a["R=S"], label="R=S"
                    ),
                    query.predicates[1],
                ],
            )
            total += cm.plan_cost(res.plan, world, a["M"])
        assert total / trials == pytest.approx(analytic, rel=0.05)
