"""The Chen & Schneider prune never changes an answer.

``SystemRDP`` prunes the enlarged plan spaces on lower bounds *before* a
level is costed (``_prune_level``): seeds are costed, seated in trial
buckets, and every split whose bound exceeds what those hold is dropped
unseen.  The claim is that only splits that could not have placed are
dropped.  Here it is checked against the engine with the prune switched
off (``engine._prune = False``, the flag the constructor derives from
the plan space): same candidate list, signatures and
``repr(objective)``, for every seeded query, space, coster, ``top_k``
and cross-product setting below.

The second half pins the point of pruning before costing: on cliques —
where several splits of a subset share an order label, so the prune can
fire at all — ``formula_evaluations`` is no higher than the in-order
prune of the parent commit (25cdb37) paid for the same query.
"""

from __future__ import annotations

import numpy as np
import pytest

import repro
from repro.core.context import OptimizationContext
from repro.core.distributions import DiscreteDistribution
from repro.optimizer.costers import ExpectedCoster, MultiParamCoster, PointCoster
from repro.optimizer.systemr import SystemRDP
from repro.workloads.queries import (
    chain_query,
    clique_query,
    random_query,
    with_selectivity_uncertainty,
)

MEMORY = DiscreteDistribution([400.0, 1500.0, 4000.0], [0.25, 0.5, 0.25])

COSTERS = {
    "point": lambda: PointCoster(1500.0),
    "lec": lambda: ExpectedCoster(MEMORY),
    "multiparam-fast": lambda: MultiParamCoster(MEMORY, fast=True),
}


def _query(shape: str, n: int, seed: int):
    rng = np.random.default_rng(seed)
    if shape == "chain-one-attribute":
        # Every predicate carries the same order label and the query asks
        # for that order: the one family where what the order buckets
        # keep decides the winner, so an unsound prune shows.
        query = chain_query(n, rng, shared_attribute=True, require_order=True)
    else:
        query = random_query(n, rng, shape=shape)
    return with_selectivity_uncertainty(query, 1.0, n_buckets=4)


def _candidates(query, kind, prune: bool, **engine_args):
    engine = SystemRDP(
        COSTERS[kind](), context=OptimizationContext(query), **engine_args
    )
    assert engine._prune, "these spaces prune by default"
    engine._prune = prune
    result = engine.optimize(query)
    pruned = result.stats.partitions_pruned
    assert prune or pruned == 0
    return (
        [(c.plan.signature(), repr(c.objective)) for c in result.candidates],
        pruned,
    )


@pytest.mark.parametrize("cross", [False, True], ids=["connected", "cross"])
@pytest.mark.parametrize("top_k", [1, 3])
@pytest.mark.parametrize("kind", sorted(COSTERS))
@pytest.mark.parametrize("space", ["bushy", "zig-zag"])
@pytest.mark.parametrize(
    "shape", ["chain", "star", "clique", "chain-one-attribute"]
)
def test_pruned_and_unpruned_engines_agree(shape, space, kind, top_k, cross):
    fired = 0
    # multiparam(fast) costs ~50x a point step: it stops at n = 5, and
    # cross products (every subset of a chain becomes a table entry)
    # stop there as well.
    sizes = (4, 5) if kind == "multiparam-fast" or cross else (4, 5, 6)
    for n in sizes:
        query = _query(shape, n, seed=100 * n + top_k)
        knobs = dict(plan_space=space, top_k=top_k, allow_cross_products=cross)
        pruned, count = _candidates(query, kind, True, **knobs)
        plain, _ = _candidates(query, kind, False, **knobs)
        assert pruned == plain, (shape, n)
        fired += count
    if shape in ("clique", "chain-one-attribute") or cross:
        assert fired > 0, "the prune never fired: nothing was checked"


#: (relations, objective) -> ``formula_evaluations`` of ``repro.optimize``
#: at the parent commit, whose prune ran split by split, each after the
#: earlier ones had been costed (``clique_query`` draw 7, bushy).
PARENT_EVALUATIONS = {
    (6, "lec"): 3339,
    (6, "point"): 1098,
    (7, "lec"): 8316,
    (7, "point"): 2883,
}


@pytest.mark.parametrize("n,objective", sorted(PARENT_EVALUATIONS))
def test_pruning_before_costing_evaluates_no_more_than_the_parent(n, objective):
    query = with_selectivity_uncertainty(
        clique_query(n, np.random.default_rng(7)), 1.0, n_buckets=4
    )
    repro.clear_context_cache()
    stats = repro.optimize(
        query, objective, memory=MEMORY, plan_space="bushy"
    ).stats
    assert stats.partitions_pruned > 0
    assert stats.formula_evaluations <= PARENT_EVALUATIONS[n, objective]
