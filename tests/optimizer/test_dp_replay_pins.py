"""The DP's answers, recorded before the engine was touched.

Sixty-odd ops drawn with one fixed ``np.random.default_rng`` from
``repro.workloads.queries`` — chains, stars, cliques, a shared-attribute
chain with a required order, an SPJU block with DISTINCT; every plan
space, every objective the space admits, ``top_k`` 1 and 3, cross
products on for two — each pinned to its plan signature,
``repr(objective)``, the whole candidate list and all six
``OptimizerStats`` counters, as the parent commit 5f54997 produced them
(``test_dp_replay_pins.json``).  A change to the engine's bookkeeping
must leave every one of them alone, under any ``PYTHONHASHSEED``.

The JSON was re-recorded once, on purpose, at the commit of ISSUE 22,
which walks a split's inputs once per pair of presorted flags instead of
once per pair of order buckets: ``entries_offered`` and ``merge_probes``
count those walks, so they fell in 55 of the 66 ops (the rest meet one
bucket on each side of every split).  Every bucket's cost list is
bit-identical, so every ``signature``, ``objective``, candidate
``repr(objective)`` and the other four counters repeat; among plans of
bit-equal cost, which one fills a tail slot at ``top_k > 1`` follows the
new arrival order, and one candidate moved: the third of
``chain4-lec-bushy-1``'s three plans costing ``111066.21471552554``.

Run this file as a script to rewrite the JSON from the current tree: it
prints how many ops moved per field and refuses (exit 1, nothing
written) when an answer (:data:`ANSWERS`) is among them.
"""

from __future__ import annotations

import dataclasses
import functools
import json
import sys
from pathlib import Path

import numpy as np
import pytest

import repro
from repro.core.context import OptimizationContext
from repro.core.distributions import DiscreteDistribution
from repro.core.markov import sticky_chain
from repro.workloads.queries import (
    chain_query,
    clique_query,
    star_query,
    union_query,
    with_selectivity_uncertainty,
    with_size_uncertainty,
)

PINS = Path(__file__).with_suffix(".json")
MEMORY = DiscreteDistribution([400.0, 1500.0, 4000.0], [0.25, 0.5, 0.25])
MARKOV = sticky_chain(MEMORY, 0.8)


def _ops():
    """``(id, query, objective, keyword arguments)`` per op, in order."""
    rng = np.random.default_rng(2102)
    shapes = [
        ("chain", chain_query, (4, 5, 6, 7, 8)),
        ("star", star_query, (4, 5, 6)),
        ("clique", clique_query, (4, 5)),
    ]
    spaces = ("bushy", "zig-zag", "left-deep")
    ops = []
    for shape, make, sizes in shapes:
        for n in sizes:
            query = with_selectivity_uncertainty(
                with_size_uncertainty(make(n, rng), 0.6), 1.0, n_buckets=4
            )
            space = spaces[len(ops) % 3]
            runs = [
                ("point", space, {}),
                ("lec", space, {"top_k": 3}),
                ("multiparam", spaces[(len(ops) + 1) % 3], {"fast": True}),
                ("multiparam", space, {"fast": False, "max_buckets": 8}),
            ]
            if space != "bushy":
                runs.append(("markov", space, {}))
            else:
                runs.append(("lec", "zig-zag", {}))
            for objective, plan_space, knobs in runs:
                ops.append((
                    f"{shape}{n}-{objective}-{plan_space}-{len(ops)}",
                    query, objective, {"plan_space": plan_space, **knobs},
                ))
    for space in spaces:
        ordered = chain_query(6, rng, shared_attribute=True, require_order=True)
        for objective, top_k in (("lec", 3), ("point", 1), ("multiparam", 1)):
            ops.append((
                f"ordered6-{objective}-{space}-{len(ops)}", ordered, objective,
                {"plan_space": space, "top_k": top_k},
            ))
        if space != "bushy":
            ops.append((
                f"ordered6-markov-{space}-{len(ops)}", ordered, "markov",
                {"plan_space": space, "top_k": 3},
            ))
    crossed = star_query(5, rng)
    for objective, space in (("lec", "bushy"), ("point", "zig-zag")):
        ops.append((
            f"cross5-{objective}-{space}-{len(ops)}", crossed, objective,
            {"plan_space": space, "allow_cross_products": True, "top_k": 3},
        ))
    block = with_selectivity_uncertainty(
        union_query(2, 4, rng, distinct=True, projection_ratios=[0.5, 1.0]),
        1.0, n_buckets=4,
    )
    for objective in ("lec", "point", "multiparam"):
        ops.append((
            f"spju-{objective}-{len(ops)}", block, objective,
            {"plan_space": "spju", "top_k": 3},
        ))
    return ops


OPS = _ops()


@functools.lru_cache(maxsize=None)
def _pins():
    return json.loads(PINS.read_text())


def _answer(query, objective, knobs):
    memory = MARKOV if objective == "markov" else MEMORY
    if objective == "point":
        memory = MEMORY.mean()
    result = repro.optimize(
        query, objective, memory=memory,
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
    assert 55 <= len(OPS) <= 75
    assert len({op[0] for op in OPS}) == len(OPS)
    assert sorted(_pins()) == sorted(op[0] for op in OPS)
    knobs = [op[3] for op in OPS]
    assert sum(k.get("allow_cross_products", False) for k in knobs) == 2
    assert {k["plan_space"] for k in knobs} == {
        "bushy", "zig-zag", "left-deep", "spju"
    }
    assert {k.get("top_k", 1) for k in knobs} == {1, 3}
    assert {op[2] for op in OPS} == {"point", "lec", "markov", "multiparam"}


@pytest.mark.parametrize("op", OPS, ids=[op[0] for op in OPS])
def test_answer_is_the_recorded_one(op):
    name, query, objective, knobs = op
    assert _answer(query, objective, knobs) == _pins()[name]


#: What a re-record may never move: the answers, not their bookkeeping.
ANSWERS = ("signature", "objective", "candidate objectives")


def _fields(pin):
    """One pin as the fields a re-record is reviewed by."""
    return {
        "signature": pin["signature"],
        "objective": pin["objective"],
        "candidate objectives": [obj for _sig, obj in pin["candidates"]],
        "candidate signatures": [sig for sig, _obj in pin["candidates"]],
        **{f"stats.{name}": value for name, value in pin["stats"].items()},
    }


def _moved(old, new):
    """``field -> [op id, ...]``: where two pin tables differ."""
    moved = {}
    for name, pin in new.items():
        if name not in old:
            moved.setdefault("(new op)", []).append(name)
            continue
        was = _fields(old[name])
        for field, value in _fields(pin).items():
            if was.get(field) != value:
                moved.setdefault(field, []).append(name)
    return moved


def test_rerecord_names_what_moved():
    doctored = json.loads(PINS.read_text())
    name = OPS[0][0]
    doctored[name]["stats"]["merge_probes"] += 1
    doctored[name]["candidates"][0][1] = "0.0"
    assert _moved(_pins(), _pins()) == {}
    assert _moved(_pins(), doctored) == {
        "stats.merge_probes": [name], "candidate objectives": [name],
    }


if __name__ == "__main__":
    fresh = {name: _answer(q, obj, knobs) for name, q, obj, knobs in OPS}
    moved = _moved(_pins(), fresh)
    for field, names in sorted(moved.items()):
        print(f"{field}: moved in {len(names)} of {len(OPS)} ops")
    refused = [field for field in ANSWERS if field in moved]
    if refused:
        for field in refused:
            print(f"refused, {field} moved: {', '.join(moved[field])}")
        sys.exit(1)
    PINS.write_text(json.dumps(fresh, indent=1, sort_keys=True) + "\n")
    print(f"wrote {len(OPS)} pins to {PINS}")
