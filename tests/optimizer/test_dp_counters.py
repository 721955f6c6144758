"""The DP's counters, pinned.

``OptimizerStats`` is what ``bench/``'s ``_per_op`` counts and every
"same work, done cheaper" claim about the DP core rest on, so the five
fields — and the winner they come with — are pinned here for a fixed
seeded set spanning every plan space, coster and engine option (run
this file as a script to print a fresh table); a rewrite of the
enumeration that visits a different subset, probes a different pair or
prunes a different split moves one of them.

The values were re-recorded once, on purpose, at the commit of ISSUE 17
(the child of 25cdb37), which prunes a level on bounds *before* costing
it: a split can now be dropped ahead of a sibling the old in-order prune
had to cost first.  Of the table recorded before the integer-mask DP
core only ``bushy-clique5-multiparam-fast`` moved (``entries_offered``
1049 -> 989, ``merge_probes`` 348 -> 328, ``partitions_pruned``
41 -> 44); the seven other rows and all eight winners repeat.

``entries_offered`` and ``merge_probes`` — and only those two columns —
were re-recorded at the commit of ISSUE 22, which walks a split's inputs
once per pair of presorted flags where it walked every pair of order
buckets: both count those walks, so all eight rows fell (for instance
``bushy-chain8-lec`` 2780 / 924 -> 512 / 168).  The subsets, the prunes,
the formula evaluations and the winners are not bookkeeping and repeat.
Run as a script, this file prints how many rows moved per column and
exits 1, table unprinted, if one of those four did (:data:`ANSWERS`).
"""

from __future__ import annotations

import sys

import numpy as np
import pytest

import repro
from repro.core.distributions import DiscreteDistribution
from repro.core.markov import sticky_chain
from repro.plans.query import JoinPredicate, JoinQuery, RelationSpec
from repro.workloads.queries import (
    chain_query,
    clique_query,
    star_query,
    union_query,
    with_selectivity_uncertainty,
)

MEMORY = DiscreteDistribution([400.0, 1500.0, 4000.0], [0.25, 0.5, 0.25])


def _uncertain(make, n, seed):
    query = make(n, np.random.default_rng(seed))
    return with_selectivity_uncertainty(query, 1.0, n_buckets=4)


def _disconnected():
    """Two 2-relation components: only cross products can finish it."""
    rels = [
        RelationSpec("D", pages=900.0),
        RelationSpec("B", pages=12000.0),
        RelationSpec("C", pages=300.0),
        RelationSpec("A", pages=5000.0),
    ]
    preds = [
        JoinPredicate("D", "B", selectivity=2e-6),
        JoinPredicate("C", "A", selectivity=5e-6),
    ]
    return JoinQuery(rels, preds)


#: name -> (query, objective, memory, facade knobs)
CASES = {
    "bushy-chain8-lec": (
        _uncertain(chain_query, 8, 101), "lec", MEMORY, dict(plan_space="bushy")),
    "bushy-star6-point": (
        _uncertain(star_query, 6, 102), "point", MEMORY, dict(plan_space="bushy")),
    "bushy-clique5-multiparam-fast": (
        _uncertain(clique_query, 5, 103), "multiparam", MEMORY,
        dict(plan_space="bushy", fast=True)),
    "zigzag-chain6-lec": (
        _uncertain(chain_query, 6, 104), "lec", MEMORY, dict(plan_space="zig-zag")),
    "leftdeep-clique5-algorithm-b-top3": (
        _uncertain(clique_query, 5, 105), "algorithm_b", MEMORY, dict(top_k=3)),
    "leftdeep-chain5-markov": (
        _uncertain(chain_query, 5, 106), "markov", sticky_chain(MEMORY, 0.8), {}),
    "spju-two-3-relation-arms": (
        union_query(2, 3, np.random.default_rng(107), distinct=True), "lec",
        MEMORY, dict(plan_space="spju")),
    "bushy-disconnected4-cross-products": (
        _disconnected(), "point", 800.0,
        dict(plan_space="bushy", allow_cross_products=True)),
}

#: name -> (subsets_explored, entries_offered, merge_probes,
#:          partitions_pruned, formula_evaluations, winner signature)
PINNED = {
    "bushy-chain8-lec": (
        36, 512, 168, 0, 1512,
        "(R0 GH (((R1 GH R2) GH R3) GH ((R4 GH (R5 GH R6)) GH R7)))",
    ),
    "bushy-star6-point": (
        37, 486, 160, 0, 480,
        "(R3 NL (R1 GH (R2 GH (R4 GH (R0 GH R5)))))",
    ),
    "bushy-clique5-multiparam-fast": (
        31, 413, 136, 44, 0,
        "(R2 NL (R3 NL ((R0 GH R1) NL R4)))",
    ),
    "zigzag-chain6-lec": (
        21, 156, 50, 0, 450,
        "(((((R5 GH R4) NL R3) GH R2) GH R1) GH R0)",
    ),
    "leftdeep-clique5-algorithm-b-top3": (
        124, 2240, 740, 0, 972,
        "((((R3 NL R2) GH R4) NL R1) NL R0)",
    ),
    "leftdeep-chain5-markov": (
        15, 65, 20, 0, 180,
        "((((R2 NL R1) NL R3) NL R4) GH R0)",
    ),
    "spju-two-3-relation-arms": (
        12, 54, 16, 0, 147,
        "union-distinct((U0R0 GH (U0R1 GH U0R2)), ((U1R0 NL U1R1) GH U1R2))",
    ),
    "bushy-disconnected4-cross-products": (
        15, 106, 34, 16, 102,
        "((A NL C) NL (B GH D))",
    ),
}


def _observe(name):
    query, objective, memory, knobs = CASES[name]
    repro.clear_context_cache()
    result = repro.optimize(query, objective, memory=memory, **knobs)
    s = result.stats
    return (
        s.subsets_explored, s.entries_offered, s.merge_probes,
        s.partitions_pruned, s.formula_evaluations, result.plan.signature(),
    )


@pytest.mark.parametrize("name", sorted(CASES))
def test_counters_and_winner_are_pinned(name):
    assert _observe(name) == PINNED[name]


COLUMNS = (
    "subsets_explored", "entries_offered", "merge_probes",
    "partitions_pruned", "formula_evaluations", "winner signature",
)
#: What a re-record may never move (columns 1, 4, 5, 6).
ANSWERS = (
    "subsets_explored", "partitions_pruned", "formula_evaluations",
    "winner signature",
)


def _moved(old, new):
    """``column -> [case, ...]``: where two tables of rows differ."""
    moved = {}
    for case, row in new.items():
        for column, was, now in zip(COLUMNS, old[case], row):
            if was != now:
                moved.setdefault(column, []).append(case)
    return moved


def test_rerecord_names_what_moved():
    case = "bushy-chain8-lec"
    doctored = dict(PINNED, **{case: (36, 1, 2, 0, 1512, "R0")})
    assert _moved(PINNED, PINNED) == {}
    assert _moved(PINNED, doctored) == {
        "entries_offered": [case], "merge_probes": [case],
        "winner signature": [case],
    }


if __name__ == "__main__":
    fresh = {case: _observe(case) for case in CASES}
    moved = _moved(PINNED, fresh)
    for column, cases in moved.items():
        print(f"{column}: moved in {len(cases)} of {len(CASES)} rows")
    refused = [column for column in ANSWERS if column in moved]
    if refused:
        for column in refused:
            print(f"refused, {column} moved: {', '.join(moved[column])}")
        sys.exit(1)
    for case, row in fresh.items():
        print(f"    {case!r}: {row!r},")
