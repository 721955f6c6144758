"""Property-based cross-validation of the paper's theorems.

Hypothesis generates random queries and distributions; each theorem's
statement is checked against independent brute force:

* Theorem 2.1 — System R DP returns the LSC left-deep plan.
* Theorem 3.3 — Algorithm C returns the LEC left-deep plan.
* Theorem 3.4 — Algorithm C with phase marginals is exact for dynamic
  parameters (sequence-enumerated objective).
* The LEC dominance guarantee — E[LEC plan] <= E[plan chosen at any
  specific parameter value].
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.optimizer import optimize_algorithm_c, optimize_lsc
from repro.core.distributions import DiscreteDistribution
from repro.core.floats import COST_REL_TOL
from repro.core.markov import random_walk_chain
from repro.costmodel.model import DEFAULT_METHODS, CostModel
from repro.optimizer.exhaustive import exhaustive_best
from repro.workloads.queries import random_query


@st.composite
def query_and_memory(draw):
    seed = draw(st.integers(0, 2**31))
    n = draw(st.integers(2, 4))
    shape = draw(st.sampled_from(["chain", "star", "clique"]))
    require_order = draw(st.booleans()) and shape != "clique"
    rng = np.random.default_rng(seed)
    kwargs = {} if shape == "clique" else {"require_order": require_order}
    q = random_query(n, rng, shape=shape, min_pages=100, max_pages=300000, **kwargs)
    b = draw(st.integers(1, 5))
    vals = np.sort(rng.uniform(20.0, 6000.0, size=b))
    probs = rng.dirichlet(np.ones(b))
    memory = DiscreteDistribution(vals, probs)
    return q, memory


class TestTheorem21:
    @given(qm=query_and_memory())
    @settings(max_examples=25, deadline=None)
    def test_lsc_dp_equals_bruteforce(self, qm):
        q, memory = qm
        m = memory.mean()
        cm = CostModel(count_evaluations=False)
        res = optimize_lsc(q, m)
        truth, _ = exhaustive_best(
            q, lambda p: cm.plan_cost(p, q, m), DEFAULT_METHODS
        )
        assert res.objective == pytest.approx(truth.objective, rel=COST_REL_TOL)


class TestTheorem33:
    @given(qm=query_and_memory())
    @settings(max_examples=25, deadline=None)
    def test_lec_dp_equals_bruteforce(self, qm):
        q, memory = qm
        cm = CostModel(count_evaluations=False)
        res = optimize_algorithm_c(q, memory)
        truth, _ = exhaustive_best(
            q, lambda p: cm.plan_expected_cost(p, q, memory), DEFAULT_METHODS
        )
        assert res.objective == pytest.approx(truth.objective, rel=COST_REL_TOL)


class TestTheorem34:
    @given(qm=query_and_memory(), move_prob=st.floats(0.0, 1.0))
    @settings(max_examples=15, deadline=None)
    def test_dynamic_dp_equals_sequence_bruteforce(self, qm, move_prob):
        q, memory = qm
        chain = random_walk_chain(memory.support(), move_prob=move_prob)
        cm = CostModel(count_evaluations=False)
        res = optimize_algorithm_c(q, chain)
        truth, _ = exhaustive_best(
            q,
            lambda p: cm.plan_expected_cost_bruteforce(p, q, chain),
            DEFAULT_METHODS,
        )
        assert res.objective == pytest.approx(truth.objective, rel=COST_REL_TOL)


class TestDominance:
    @given(qm=query_and_memory(), probe=st.floats(0.0, 1.0))
    @settings(max_examples=25, deadline=None)
    def test_lec_dominates_every_specific_lsc(self, qm, probe):
        """E[Φ(LEC plan)] <= E[Φ(plan optimized for any point)]."""
        q, memory = qm
        cm = CostModel(count_evaluations=False)
        lec = optimize_algorithm_c(q, memory)
        point = memory.min() + probe * (memory.max() - memory.min())
        lsc = optimize_lsc(q, max(point, 4.0))
        e_lsc = cm.plan_expected_cost(lsc.plan, q, memory)
        assert lec.objective <= e_lsc * (1 + 1e-9)
