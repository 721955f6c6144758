"""A served plan re-costs to the objective it was served with.

The service reports ``objective_value`` from the DP's own bookkeeping
(memoized step costs, batched kernels, the context's size memo).  These
properties re-derive it along an independent path — the whole-plan
costing of :class:`~repro.costmodel.model.CostModel` and
:func:`~repro.core.algorithm_d.plan_expected_cost_multiparam` — and, for
queries small enough to enumerate, against the optimum over every
left-deep plan.  A cache hit must hand back the very plan document the
miss stored, byte for byte.
"""

from __future__ import annotations

import json

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import CostModel, exhaustive_best, plan_expected_cost_multiparam
from repro.core.distributions import DiscreteDistribution
from repro.serving.service import RUNG_FULL, OptimizerService
from repro.tools.serialize import plan_to_dict
from repro.workloads.queries import random_query, with_selectivity_uncertainty

MEMORY = DiscreteDistribution([400.0, 1500.0, 4000.0], [0.25, 0.5, 0.25])
REL_TOL = 1e-6


def _close(a: float, b: float) -> bool:
    return abs(a - b) <= REL_TOL * max(abs(a), abs(b), 1.0)


def _query(shape: str, n: int, seed: int):
    query = random_query(n, np.random.default_rng(seed), shape=shape)
    return with_selectivity_uncertainty(query, 1.0, n_buckets=4)


def _recost(objective: str, plan, query, cm: CostModel) -> float:
    if objective == "point":
        return cm.plan_cost(plan, query, float(MEMORY.mean()))
    if objective == "multiparam":
        return plan_expected_cost_multiparam(plan, query, MEMORY, cost_model=cm)
    return cm.plan_expected_cost(plan, query, MEMORY)


def _doc(plan) -> str:
    return json.dumps(plan_to_dict(plan), sort_keys=True)


_SHAPES = st.sampled_from(("chain", "star", "clique"))
_SEEDS = st.integers(0, 2 ** 16)


@settings(max_examples=20)
@given(
    objective=st.sampled_from(("point", "lec", "multiparam")),
    shape=_SHAPES, n=st.integers(2, 5), seed=_SEEDS,
)
def test_full_rung_plan_recosts_to_served_objective(objective, shape, n, seed):
    query = _query(shape, n, seed)
    with OptimizerService(max_workers=1) as service:
        served = service.optimize(query, objective, memory=MEMORY)
    assert served.rung == RUNG_FULL and not served.cache_hit
    again = _recost(objective, served.plan, query, CostModel())
    assert _close(again, served.objective_value), (again, served.objective_value)


@settings(max_examples=12)
@given(
    objective=st.sampled_from(("point", "lec")),
    shape=_SHAPES, n=st.integers(2, 4), seed=_SEEDS,
)
def test_small_queries_are_served_the_exhaustive_optimum(objective, shape, n,
                                                         seed):
    query = _query(shape, n, seed)
    with OptimizerService(max_workers=1) as service:
        served = service.optimize(query, objective, memory=MEMORY)
    cm = CostModel()
    best, _ = exhaustive_best(
        query, lambda plan: _recost(objective, plan, query, cm), cm.methods
    )
    assert _close(best.objective, served.objective_value), (
        best.objective, served.objective_value,
    )


@settings(max_examples=12)
@given(
    objective=st.sampled_from(("point", "lec", "multiparam")),
    shape=_SHAPES, n=st.integers(2, 5), seed=_SEEDS,
)
def test_cache_hit_returns_the_miss_plan_document(objective, shape, n, seed):
    query = _query(shape, n, seed)
    with OptimizerService(max_workers=1) as service:
        miss = service.optimize(query, objective, memory=MEMORY)
        hit = service.optimize(query, objective, memory=MEMORY)
    assert not miss.cache_hit and hit.cache_hit
    assert _doc(hit.plan) == _doc(miss.plan)
    assert repr(hit.objective_value) == repr(miss.objective_value)
