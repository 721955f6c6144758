"""Algorithms A and B's answers, recorded before their probes were touched.

Twenty-four ops drawn with one fixed ``np.random.default_rng`` from
``repro.workloads.queries``: chains (every other one with a required
order on a shared attribute, so the enforcer sort is in play), stars and
cliques of 3 to 6 relations; every ordered plan space and bushy;
Algorithm A and Algorithm B at ``c`` 2 and 3; the mean probed and not.
Each is pinned to its plan signature, ``repr(objective)``, the whole
candidate list and all six ``OptimizerStats`` counters as commit
836b1b3 produced them (``test_probe_pins.json``).  Algorithms A and B
run one point DP per memory bucket (and at the mean) on one context,
then re-score every candidate by expected cost: a change to how either
half is done must leave every pin alone, under any ``PYTHONHASHSEED``.

Run this file as a script to rewrite the JSON from the current tree: it
prints how many ops moved per field and refuses (exit 1, nothing
written) when an answer is among them.
"""

from __future__ import annotations

import dataclasses
import functools
import itertools
import json
import sys
from pathlib import Path

import numpy as np
import pytest

import repro
from repro.core.context import OptimizationContext
from repro.core.distributions import DiscreteDistribution
from repro.workloads.queries import chain_query, clique_query, star_query

PINS = Path(__file__).with_suffix(".json")
#: Mean 1850 pages, not a bucket: ``include_mean`` adds a fourth probe.
MEMORY = DiscreteDistribution([400.0, 1500.0, 4000.0], [0.25, 0.5, 0.25])
ALGORITHMS = (("algorithm_a", 1), ("algorithm_b", 2), ("algorithm_b", 3))
SPACES = ("left-deep", "zig-zag", "bushy")


def _ops():
    """``(id, query, objective, keyword arguments)`` per op, in order."""
    rng = np.random.default_rng(2601)
    ops = []
    grid = itertools.product(ALGORITHMS, (3, 4, 5, 6), (True, False))
    for i, ((objective, c), n, include_mean) in enumerate(grid):
        shape = ("chain", "star", "clique")[i % 3]
        if shape == "chain":
            ordered = n % 2 == 0
            query = chain_query(
                n, rng, shared_attribute=ordered, require_order=ordered
            )
        else:
            query = (star_query if shape == "star" else clique_query)(n, rng)
        space = SPACES[(i + i // 6) % 3]  # every shape meets every space
        knobs = {"plan_space": space, "top_k": c, "include_mean": include_mean}
        mean = "mean" if include_mean else "buckets"
        ops.append((
            f"{shape}{n}-{objective[-1]}{c}-{space}-{mean}-{i}",
            query, objective, knobs,
        ))
    return ops


OPS = _ops()


@functools.lru_cache(maxsize=None)
def _pins():
    return json.loads(PINS.read_text())


def _answer(query, objective, knobs):
    result = repro.optimize(
        query, objective, memory=MEMORY,
        context=OptimizationContext(query), **knobs,
    )
    return {
        "signature": result.plan.signature(),
        "objective": repr(result.objective),
        "candidates": [
            [c.plan.signature(), repr(c.objective)] for c in result.candidates
        ],
        "stats": dataclasses.asdict(result.stats),
    }


def test_the_mix_is_what_the_docstring_says():
    assert len(OPS) == 24
    assert len({op[0] for op in OPS}) == len(OPS)
    assert sorted(_pins()) == sorted(op[0] for op in OPS)
    assert {len(op[1].relations) for op in OPS} == {3, 4, 5, 6}
    assert {
        (op[0].split("-")[0].rstrip("3456"), op[3]["plan_space"]) for op in OPS
    } == set(itertools.product(("chain", "star", "clique"), SPACES))
    assert {(op[2], op[3]["top_k"]) for op in OPS} == set(ALGORITHMS)
    assert {op[3]["include_mean"] for op in OPS} == {True, False}
    assert any(op[1].required_order is not None for op in OPS)


@pytest.mark.parametrize("op", OPS, ids=[op[0] for op in OPS])
def test_answer_is_the_recorded_one(op):
    name, query, objective, knobs = op
    assert _answer(query, objective, knobs) == _pins()[name]


#: What a re-record may never move: the answers, not their bookkeeping.
ANSWERS = ("signature", "objective", "candidates")


if __name__ == "__main__":
    fresh = {name: _answer(q, obj, knobs) for name, q, obj, knobs in OPS}
    old = _pins() if PINS.exists() else {}
    moved = {}
    for name, pin in fresh.items():
        for field, value in pin.items():
            if name in old and old[name][field] != value:
                moved.setdefault(field, []).append(name)
    for field, names in sorted(moved.items()):
        print(f"{field}: moved in {len(names)} of {len(OPS)} ops")
    refused = [field for field in ANSWERS if field in moved]
    if refused:
        for field in refused:
            print(f"refused, {field} moved: {', '.join(moved[field])}")
        sys.exit(1)
    PINS.write_text(json.dumps(fresh, indent=1, sort_keys=True) + "\n")
    print(f"wrote {len(OPS)} pins to {PINS}")
