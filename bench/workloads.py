"""The five workloads, generated from ``--seed`` and nothing else.

Sizes are constants: a workload's op list depends only on the seed (and
``scale``, which ``--smoke`` alone sets), never on how fast the host is.
Structure (shapes, relation counts, objectives per query) is fixed; the
seed draws relation sizes, selectivities, and the replay schedule.

A workload is an op *stream* plus a segment size.  A measured run takes
consecutive segments off the (cyclic) stream.  Four workloads have a
stream exactly one segment long, so every segment replays the same list;
``cluster_zipf`` has a sixteen-segment stream because replaying one
short Zipf list would leave every key in the hot LRUs after the first
segment and the shared tier would never hit again.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Tuple

import numpy as np

from repro import DiscreteDistribution, sticky_chain
from repro.workloads.queries import (
    chain_query,
    clique_query,
    random_query,
    star_query,
    with_selectivity_uncertainty,
)

from .metrics import WORKLOADS

__all__ = ["MEMORY", "MARKOV", "Op", "Workload", "build", "WHY"]

#: The memory-size distribution every request optimizes under (the one
#: the repository's own replay drivers use).
MEMORY = DiscreteDistribution([400.0, 1500.0, 4000.0], [0.25, 0.5, 0.25])
#: Dynamic-memory input of the ``markov`` objective: same marginal, sticky.
MARKOV = sticky_chain(MEMORY, 0.8)

WHY: Dict[str, str] = {
    "dp_bushy": (
        "Bushy DP over 5-10 relations, context cleared per op: enumeration "
        "(systemr, plans.space, topk, costers) is all the work, serving and "
        "cluster none; where a DP-core rewrite must show."
    ),
    "dp_small": (
        "Left-deep n=3-5 under all six objectives: per-call overhead (facade "
        "dispatch, context build, fingerprint, coster bind) dominates; catches "
        "refactors that regress small queries."
    ),
    "serve_hot": (
        "128 queries pre-warmed into the 256-entry PlanCache, Zipf replay, 1 "
        "client: 100% hits, so service, cache, fingerprint and plan decode are "
        "the whole cost and DP is zero."
    ),
    "cluster_zipf": (
        "2-shard gateway, 1024 pre-warmed queries, Zipf, 2 clients: working "
        "set is 2x the hot LRUs and 1/4 of the shared tier, so hot hits set "
        "p50 and shared-tier hits set p90."
    ),
    "cluster_churn": (
        "Same gateway, 400 queries, uniform schedule, catalog version bumped "
        "every 250 ops: the miss path through the wire, shared put, version "
        "broadcast and invalidate_stale."
    ),
}


@dataclass(frozen=True)
class Op:
    """One request: a query (by index), an objective, and its knobs."""

    query: int
    objective: str
    knobs: Tuple[Tuple[str, Any], ...] = ()

    @property
    def memory(self):
        return MARKOV if self.objective == "markov" else MEMORY

    def kwargs(self) -> Dict[str, Any]:
        return dict(self.knobs)


@dataclass
class Workload:
    name: str
    family: str  # "library" | "service" | "cluster"
    clients: int
    queries: List[Any]
    stream: List[Op]
    segment_ops: int
    imports: str  # what a set-up cycle's fresh interpreter imports
    prewarm: bool = False
    bump_every: Optional[int] = None
    exhaustive_upto: int = 0  # run check (2) on queries up to this size
    #: ``setup_s`` is the median of this many set-up cycles; a cycle that
    #: pre-warms 1024 queries through the wire (5 s) gets fewer.
    setup_cycles: int = 5
    oplist_sha1: str = field(default="", init=False)

    @property
    def why(self) -> str:
        return WHY[self.name]

    def segment(self, k: int) -> List[int]:
        """Stream positions of the ``k``-th segment (the stream is cyclic)."""
        n = len(self.stream)
        start = (k * self.segment_ops) % n
        return [(start + j) % n for j in range(self.segment_ops)]


def _uncertain(query):
    return with_selectivity_uncertainty(query, 1.0, n_buckets=4)


def _count(n: int, scale: float) -> int:
    return max(1, int(round(n * scale)))


def _zipf_picks(rng: np.random.Generator, n_distinct: int, n_ops: int) -> List[int]:
    weights = 1.0 / np.arange(1, n_distinct + 1)
    weights /= weights.sum()
    return [int(i) for i in rng.choice(n_distinct, size=n_ops, p=weights)]


def _dp_bushy(rng: np.random.Generator, scale: float) -> Workload:
    # (generator, relations, queries, of which also run multiparam(fast)).
    # The issue sized this for chains up to 12 and 100 ops per 4-6 s
    # segment; the builder's contract gives one run ~10 s in all, so the
    # same mix is kept two relations smaller (chain-10 lec ~80 ms here).
    mix = [
        (chain_query, 6, 10, 4), (chain_query, 8, 8, 0), (chain_query, 10, 4, 0),
        (star_query, 5, 10, 4), (star_query, 6, 8, 0), (clique_query, 5, 8, 0),
    ]
    bushy = (("plan_space", "bushy"),)
    queries, ops = [], []
    for make, n, count, multiparam in mix:
        for j in range(_count(count, scale)):
            queries.append(_uncertain(make(n, rng)))
            q = len(queries) - 1
            ops += [Op(q, "lec", bushy), Op(q, "point", bushy)]
            if multiparam and j < _count(multiparam, scale):
                ops.append(Op(q, "multiparam", bushy + (("fast", True),)))
    order = rng.permutation(len(ops))
    stream = [ops[i] for i in order]
    return Workload("dp_bushy", "library", 1, queries, stream, len(stream),
                    imports="repro")


def _dp_small(rng: np.random.Generator, scale: float) -> Workload:
    objectives = [
        ("lec", ()), ("point", ()), ("multiparam", ()), ("algorithm_a", ()),
        ("algorithm_b", (("top_k", 2),)), ("markov", ()),
    ]
    queries, ops = [], []
    # Check (2) enumerates every left-deep plan of a query: 648 for a
    # 4-relation clique (0.2 s) but 9720 for a 5-relation one (3.4 s), so
    # it stops at n = 4 and the n = 5 queries are checked by (1) and (3).
    # Shapes cycle rather than being drawn: a clique costs several times
    # a chain, and the seed should move sizes, not how much work there is.
    shapes = ("chain", "star", "clique")
    for n, count in ((3, 16), (4, 16), (5, 8)):
        for j in range(_count(count, scale)):
            queries.append(_uncertain(random_query(n, rng, shape=shapes[j % 3])))
            ops += [Op(len(queries) - 1, obj, knobs) for obj, knobs in objectives]
    order = rng.permutation(len(ops))
    stream = [ops[i] for i in order]
    return Workload("dp_small", "library", 1, queries, stream, len(stream),
                    imports="repro", exhaustive_upto=4)


def _replay(rng, n_distinct: int, lo: int, hi: int):
    return [
        _uncertain(random_query(int(rng.integers(lo, hi + 1)), rng))
        for _ in range(n_distinct)
    ]


def _serve_hot(rng: np.random.Generator, scale: float) -> Workload:
    n = _count(128, scale)
    queries = _replay(rng, n, 3, 6)
    seg = _count(25000, scale)
    stream = [Op(i, "lec") for i in _zipf_picks(rng, n, seg)]
    return Workload("serve_hot", "service", 1, queries, stream, seg,
                    imports="repro.serving", prewarm=True)


def _cluster_zipf(rng: np.random.Generator, scale: float) -> Workload:
    n = _count(1024, scale)
    queries = _replay(rng, n, 3, 5)
    seg = _count(1500, scale)
    stream = [Op(i, "lec") for i in _zipf_picks(rng, n, 16 * seg)]
    return Workload("cluster_zipf", "cluster", 2, queries, stream, seg,
                    imports="repro.cluster", prewarm=True, setup_cycles=3)


def _cluster_churn(rng: np.random.Generator, scale: float) -> Workload:
    n = _count(400, scale)
    queries = _replay(rng, n, 3, 5)
    bump = _count(250, scale)
    seg = 2 * bump
    stream = [Op(int(i), "lec") for i in rng.integers(0, n, size=seg)]
    return Workload("cluster_churn", "cluster", 2, queries, stream, seg,
                    imports="repro.cluster", bump_every=bump)


_BUILDERS = {
    "dp_bushy": _dp_bushy, "dp_small": _dp_small, "serve_hot": _serve_hot,
    "cluster_zipf": _cluster_zipf, "cluster_churn": _cluster_churn,
}
assert tuple(_BUILDERS) == WORKLOADS


def _describe(query) -> list:
    def dist(d):
        return None if d is None else [list(map(float, d.values)),
                                       list(map(float, d.probs))]
    return [
        [[r.name, float(r.pages), dist(r.pages_dist)] for r in query.relations],
        [[p.left, p.right, float(p.selectivity), dist(p.selectivity_dist)]
         for p in query.predicates],
    ]


def _sha1(workload: Workload) -> str:
    doc = {
        "queries": [_describe(q) for q in workload.queries],
        "stream": [[op.query, op.objective, list(map(list, op.knobs))]
                   for op in workload.stream],
        "segment_ops": workload.segment_ops,
        "bump_every": workload.bump_every,
    }
    return hashlib.sha1(json.dumps(doc, sort_keys=True).encode()).hexdigest()


def build(name: str, seed: int, scale: float = 1.0) -> Workload:
    """The named workload for this seed (``scale`` < 1 only for ``--smoke``)."""
    if name not in _BUILDERS:
        raise ValueError(f"unknown workload {name!r}; expected one of {WORKLOADS}")
    # One independent stream per (seed, workload), so adding a workload
    # never shifts another's inputs.
    rng = np.random.default_rng([int(seed), WORKLOADS.index(name)])
    workload = _BUILDERS[name](rng, scale)
    workload.oplist_sha1 = _sha1(workload)
    return workload
