"""One pass per level, held to the per-split engine it replaced.

``SystemRDP._level`` files a level's view pairs, costs them in columns
and offers every candidate in one loop, keeping plain ``(total,
source)`` pairs and building a :class:`DPEntry` only for what a bucket
still holds when the level ends.  :class:`~.reference_dp.PerSplitDP`
keeps the earlier two-move evaluation (``_cost_splits``, then
``_build_subset`` → ``_offer_split`` per split, an entry built per
admission).  The claim is that nothing tells them apart: every
``(subset, order)`` bucket, filed in the same order, holds ``==`` cost
lists and candidates with the same plan signatures, and the answer and
all six :class:`OptimizerStats` counters agree.

Ties are what the signatures see: sort-merge, and hash or nested-loop
joins under ample memory, cost a mirrored split bit for bit as the
split, so the zig-zag and bushy draws offer equal totals whose seating
(after equal costs, strictly-below admission) the lists must repeat.
"""

from __future__ import annotations

import numpy as np
from hypothesis import given, settings, strategies as st

from repro.core.distributions import DiscreteDistribution
from repro.costmodel.context import OptimizationContext
from repro.costmodel.model import DEFAULT_METHODS, CostModel
from repro.optimizer.costers import ExpectedCoster, MultiParamCoster, PointCoster
from repro.plans.properties import JoinMethod
from repro.workloads.queries import (
    chain_query,
    clique_query,
    star_query,
    union_query,
    with_selectivity_uncertainty,
)

from .reference_dp import PerSplitDP, Recording

MEMORY = DiscreteDistribution([400.0, 1500.0, 4000.0], [0.25, 0.5, 0.25])

COSTERS = {
    "point": lambda cm: PointCoster(1500.0, cost_model=cm),
    "lec": lambda cm: ExpectedCoster(MEMORY, cost_model=cm),
    "multiparam": lambda cm: MultiParamCoster(MEMORY, cost_model=cm),
}

SM, NL = JoinMethod.SORT_MERGE, JoinMethod.NESTED_LOOP
#: (join methods, pipelined ones): the defaults, pipelined nested loops,
#: and sort-merge alone, which files nothing but order-carrying buckets
#: (the sorted-only input).
METHODS = {"default": (DEFAULT_METHODS, ()), "pipelined-nl": (DEFAULT_METHODS, (NL,)),
           "sm-only": ((SM,), ())}

SHAPES = {
    # One shared attribute: every join's order target is carried on, so
    # inputs present two views (sorted + unsorted) or the sorted one only.
    "chain-one-attribute": lambda n, rng: chain_query(n, rng, shared_attribute=True),
    "chain-one-attribute-ordered": lambda n, rng: chain_query(
        n, rng, shared_attribute=True, require_order=True
    ),
    "star": star_query,
    "clique": clique_query,
    "union": lambda n, rng: union_query(2, max(2, n // 2), rng),
}


class ReferenceDP(Recording, PerSplitDP):
    pass


def _run(engine_class, query, kind, methods, **knobs):
    cost_model = CostModel(methods=methods[0], pipelined_methods=methods[1])
    engine = engine_class(
        COSTERS[kind](cost_model), context=OptimizationContext(query), **knobs
    )
    return engine, engine.optimize(query)


def _signatures(bucket):
    return [entry.node.signature() for entry in bucket.entries]


def compare(shape, n, seed, kind, methods, **knobs):
    """Both engines on one query; returns the view flags the level pass saw."""
    query = with_selectivity_uncertainty(
        SHAPES[shape](n, np.random.default_rng(seed)), 1.0, n_buckets=4
    )
    if shape == "union":
        knobs["plan_space"] = "spju"
    engine, result = _run(Recording, query, kind, METHODS[methods], **knobs)
    reference, expected = _run(ReferenceDP, query, kind, METHODS[methods], **knobs)
    assert len(engine.tables) == len(reference.tables)
    for table, reference_table in zip(engine.tables, reference.tables):
        assert list(table) == list(reference_table)
        for mask, buckets in table.items():
            want = reference_table[mask]
            assert list(buckets) == list(want), bin(mask)  # first-offer order
            for order, bucket in buckets.items():
                assert bucket.costs == want[order].costs, (bin(mask), order)
                assert [entry.cost for entry in bucket.entries] == bucket.costs
                assert {entry.order for entry in bucket.entries} == {order}
                assert _signatures(bucket) == _signatures(want[order]), (bin(mask), order)
    assert result.stats == expected.stats
    assert [(c.plan.signature(), c.objective) for c in result.candidates] == [
        (c.plan.signature(), c.objective) for c in expected.candidates
    ]
    assert engine.flags == reference.flags
    return engine.flags


@settings(max_examples=80)
@given(
    shape=st.sampled_from(sorted(SHAPES)),
    n=st.integers(3, 6),
    seed=st.integers(0, 10_000),
    kind=st.sampled_from(sorted(COSTERS)),
    methods=st.sampled_from(sorted(METHODS)),
    space=st.sampled_from(["left-deep", "zig-zag", "bushy"]),
    top_k=st.integers(1, 4),
)
def test_every_bucket_equals_the_per_split_reference(
    shape, n, seed, kind, methods, space, top_k
):
    if kind == "multiparam":
        n = min(n, 4)  # a naive triple grid per step
    compare(shape, n, seed, kind, methods, plan_space=space, top_k=top_k)


def test_the_draws_meet_two_view_and_sorted_only_inputs_and_ties():
    seen, tied = set(), False
    for methods in sorted(METHODS):
        for space, top_k in (("bushy", 3), ("zig-zag", 1)):
            seen |= compare(
                "chain-one-attribute-ordered", 5, 17, "lec", methods,
                plan_space=space, top_k=top_k,
            )
    assert (False, True) in seen, "no input with two views"
    assert (True,) in seen, "no input with the sorted view only"
    # A bucket holding bit-equal costs: what the signatures must order.
    engine, _ = _run(Recording, with_selectivity_uncertainty(
        clique_query(5, np.random.default_rng(3)), 1.0, n_buckets=4
    ), "point", METHODS["sm-only"], plan_space="bushy", top_k=4)
    for buckets in engine.tables[0].values():
        for bucket in buckets.values():
            tied |= len(set(bucket.costs)) < len(bucket.costs)
    assert tied, "no bucket holds bit-equal costs"
