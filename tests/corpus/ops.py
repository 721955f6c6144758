"""The answer corpus's op list: every request whose answer is pinned.

An op is one ``repro.optimize`` call on a query drawn from
``repro.workloads.queries`` with a fixed ``np.random.default_rng`` seed.
The ``parity``, ``golden``, ``batch``, ``counters``, ``replay`` and
``probe`` families are the ops of the pin suites the corpus replaced,
with their own generators and seeds.  ``bushy`` (bushy DP over 5-10
relations), ``small`` (left-deep n = 3-5 under all six objectives) and
``served`` (``lec`` on 3-6 relations, also replayed through a gateway)
have the shape of the benchmark's workloads, kept small.
"""

from __future__ import annotations

import copy
import itertools
from typing import Any, Dict, List, NamedTuple, Optional

import numpy as np

from repro.cluster.protocol import decode_memory, encode_memory
from repro.core.distributions import DiscreteDistribution
from repro.core.markov import MarkovParameter, sticky_chain
from repro.plans.query import JoinPredicate, JoinQuery, RelationSpec
from repro.serving.service import OptimizeRequest
from repro.tools.serialize import query_from_dict, query_to_dict
from repro.workloads.queries import (
    chain_query, clique_query, random_query, star_query, union_query,
    with_selectivity_uncertainty, with_size_uncertainty,
)

class Op(NamedTuple):
    """One ``repro.optimize(query, objective, memory=memory, **knobs)``."""

    id: str
    query: Any
    objective: str
    memory: Any
    knobs: Dict[str, Any]
    family: str

    def request(self) -> OptimizeRequest:
        """This op as a request to the service or the gateway."""
        return OptimizeRequest(self.query, self.objective, self.memory, **self.knobs)


#: The two-bucket memory of the parity, golden and batch families.
TWO_POINT = DiscreteDistribution([2000.0, 300.0], [0.7, 0.3])
#: Every later family's memory; its mean (1850) is not a bucket, so
#: Algorithms A/B probe it as a fourth point.
MEMORY = DiscreteDistribution([400.0, 1500.0, 4000.0], [0.25, 0.5, 0.25])
#: The probe family's other memory: its mean (1500) is a bucket, so
#: Algorithms A/B probe the buckets only.
MEAN_BUCKET = DiscreteDistribution([400.0, 1500.0, 2600.0], [0.25, 0.5, 0.25])
MARKOV = sticky_chain(MEMORY, 0.8)


def _both(query, spread=0.8):
    return with_selectivity_uncertainty(with_size_uncertainty(query, spread), spread)


def _uncertain(query):
    return with_selectivity_uncertainty(query, 1.0, n_buckets=4)


def _parity_and_golden() -> List[Op]:
    rng = np.random.default_rng(42)
    queries = {"chain5": chain_query(5, rng), "star5": star_query(5, rng),
               "chain4_order": chain_query(4, rng, require_order=True)}
    rng = np.random.default_rng(1234)
    for name in ("rand4a", "rand4b"):
        queries[name] = random_query(4, rng, min_pages=200, max_pages=150000)
    queries["union2x3"] = union_query(
        2, 3, np.random.default_rng(7), distinct=True, projection_ratios=[0.6, 1.0]
    )
    queries = {name: _both(q) for name, q in queries.items()}
    ops = [
        Op(f"parity/{name}-{objective}", queries[name], objective, TWO_POINT,
           {"plan_space": "left-deep"}, "parity")
        for name in ("chain5", "star5", "chain4_order")
        for objective in ("lsc", "lec", "multiparam", "algorithm_a", "algorithm_b")
    ]
    for name, query in queries.items():
        spaces = ("spju",) if name == "union2x3" else ("left-deep", "zig-zag", "bushy")
        ops += [
            Op(f"golden/{name}-{space}-{objective}", query, objective, TWO_POINT,
               {"plan_space": space}, "golden")
            for space in spaces for objective in ("lec", "multiparam")
        ]
    return ops


def _batch() -> List[Op]:
    rng = np.random.default_rng(11)
    queries = [_both(q) for q in (
        chain_query(4, rng), star_query(4, rng), chain_query(4, rng, require_order=True),
        random_query(4, rng, min_pages=200, max_pages=120000),
    )]
    chain = MarkovParameter([300.0, 2000.0], [0.3, 0.7], [[0.6, 0.4], [0.2, 0.8]])
    kinds = {  # coster kind -> (objective, memory, knobs)
        "point": ("point", 1200.0, {}),
        "expected": ("lec", TWO_POINT, {}),
        "markov": ("markov", chain, {}),
        # Algorithm D on coarse size distributions, then at the default width.
        "multiparam-fast": ("multiparam", TWO_POINT, {"max_buckets": 4}),
        "multiparam-naive": ("multiparam", TWO_POINT, {}),
    }

    def op(kind, q, space, **knobs):
        objective, memory, fixed = kinds[kind]
        top = f"-top{knobs['top_k']}" if knobs else ""
        return Op(f"batch/{space}-{kind}-q{q}{top}", queries[q], objective, memory,
                  {"plan_space": space, **fixed, **knobs}, "batch")

    return (
        [op(kind, q, "left-deep") for kind in kinds for q in range(4)]
        + [op(kind, 0, space) for kind in ("point", "expected", "multiparam-fast")
           for space in ("zig-zag", "bushy")]
        + [op(kind, 1, "left-deep", top_k=3) for kind in kinds]
        + [op(kind, 3, space) for kind in ("multiparam-fast", "multiparam-naive")
           for space in ("zig-zag", "bushy")]
    )


def _counters() -> List[Op]:
    def q(make, n, seed):
        return _uncertain(make(n, np.random.default_rng(seed)))

    # Two 2-relation components: only cross products can finish it.
    disconnected = JoinQuery(
        [RelationSpec("D", pages=900.0), RelationSpec("B", pages=12000.0),
         RelationSpec("C", pages=300.0), RelationSpec("A", pages=5000.0)],
        [JoinPredicate("D", "B", selectivity=2e-6),
         JoinPredicate("C", "A", selectivity=5e-6)],
    )
    bushy = {"plan_space": "bushy"}
    cases = [
        ("bushy-chain8-lec", q(chain_query, 8, 101), "lec", MEMORY, bushy),
        ("bushy-star6-point", q(star_query, 6, 102), "point", MEMORY, bushy),
        ("bushy-clique5-multiparam-fast", q(clique_query, 5, 103), "multiparam",
         MEMORY, bushy),
        ("zigzag-chain6-lec", q(chain_query, 6, 104), "lec", MEMORY,
         {"plan_space": "zig-zag"}),
        ("leftdeep-clique5-algorithm-b-top3", q(clique_query, 5, 105), "algorithm_b",
         MEMORY, {"top_k": 3}),
        ("leftdeep-chain5-markov", q(chain_query, 5, 106), "markov", MARKOV, {}),
        ("spju-two-3-relation-arms",
         union_query(2, 3, np.random.default_rng(107), distinct=True), "lec", MEMORY,
         {"plan_space": "spju"}),
        ("bushy-disconnected4-cross-products", disconnected, "point", 800.0,
         {**bushy, "allow_cross_products": True}),
    ]
    return [Op(f"counters/{name}", *case, "counters") for name, *case in cases]


def _replay() -> List[Op]:
    rng = np.random.default_rng(2102)
    spaces = ("bushy", "zig-zag", "left-deep")
    runs = []  # (name, query, objective, knobs)
    for shape, make, sizes in (("chain", chain_query, (4, 5, 6, 7, 8)),
                               ("star", star_query, (4, 5, 6)),
                               ("clique", clique_query, (4, 5))):
        for n in sizes:
            query = _uncertain(with_size_uncertainty(make(n, rng), 0.6))
            space = spaces[len(runs) % 3]
            for objective, plan_space, knobs in (
                ("point", space, {}),
                ("lec", space, {"top_k": 3}),
                ("multiparam", spaces[(len(runs) + 1) % 3], {}),
                ("multiparam", space, {"max_buckets": 8}),
                ("markov", space, {}) if space != "bushy" else ("lec", "zig-zag", {}),
            ):
                runs.append((f"{shape}{n}", query, objective,
                             {"plan_space": plan_space, **knobs}))
    for space in spaces:
        ordered = chain_query(6, rng, shared_attribute=True, require_order=True)
        for objective, top_k in (("lec", 3), ("point", 1), ("multiparam", 1)) + (
            (("markov", 3),) if space != "bushy" else ()
        ):
            runs.append(("ordered6", ordered, objective, {"plan_space": space, "top_k": top_k}))
    crossed = star_query(5, rng)
    for objective, space in (("lec", "bushy"), ("point", "zig-zag")):
        runs.append(("cross5", crossed, objective,
                     {"plan_space": space, "allow_cross_products": True, "top_k": 3}))
    block = _uncertain(union_query(2, 4, rng, distinct=True, projection_ratios=[0.5, 1.0]))
    for objective in ("lec", "point", "multiparam"):
        runs.append(("spju", block, objective, {"plan_space": "spju", "top_k": 3}))
    memory = {"markov": MARKOV, "point": MEMORY.mean()}
    return [
        Op(f"replay/{name}-{objective}{'' if name == 'spju' else '-' + knobs['plan_space']}"
           f"-{i}", query, objective, memory.get(objective, MEMORY), knobs, "replay")
        for i, (name, query, objective, knobs) in enumerate(runs)
    ]


def _probe() -> List[Op]:
    rng = np.random.default_rng(2601)
    spaces = ("left-deep", "zig-zag", "bushy")
    ops = []
    grid = itertools.product((("algorithm_a", 1), ("algorithm_b", 2), ("algorithm_b", 3)),
                             (3, 4, 5, 6), (True, False))
    for i, ((objective, c), n, off_bucket) in enumerate(grid):
        shape = ("chain", "star", "clique")[i % 3]
        if shape == "chain":
            ordered = n % 2 == 0
            query = chain_query(n, rng, shared_attribute=ordered, require_order=ordered)
        else:
            query = (star_query if shape == "star" else clique_query)(n, rng)
        space = spaces[(i + i // 6) % 3]  # every shape meets every space
        mean = "mean" if off_bucket else "meanbucket"
        ops.append(Op(f"probe/{shape}{n}-{objective[-1]}{c}-{space}-{mean}-{i}", query,
                      objective, MEMORY if off_bucket else MEAN_BUCKET,
                      {"plan_space": space, "top_k": c}, "probe"))
    return ops


def _bushy() -> List[Op]:
    rng = np.random.default_rng(3401)
    ops = []
    for make, n, runs in (
        (chain_query, 6, 3), (chain_query, 8, 2), (chain_query, 10, 2),
        (star_query, 5, 3), (star_query, 6, 2), (clique_query, 5, 2),
    ):
        query, name = _uncertain(make(n, rng)), make.__name__.split("_")[0]
        ops += [
            Op(f"bushy/{name}{n}-{objective}", query, objective, MEMORY,
               {"plan_space": "bushy", **knobs}, "bushy")
            for objective, knobs in (("lec", {}), ("point", {}),
                                     ("multiparam", {}))[:runs]
        ]
    return ops


def _small() -> List[Op]:
    rng = np.random.default_rng(3402)
    ops = []
    for n, shape in ((3, "chain"), (4, "star"), (5, "clique")):
        query = _uncertain(random_query(n, rng, shape=shape))
        ops += [
            Op(f"small/{shape}{n}-{objective}", query, objective,
               MARKOV if objective == "markov" else MEMORY, knobs, "small")
            for objective, knobs in (
                ("lec", {}), ("point", {}), ("multiparam", {}), ("algorithm_a", {}),
                ("algorithm_b", {"top_k": 2}), ("markov", {}),
            )
        ]
    return ops


def _served() -> List[Op]:
    rng = np.random.default_rng(3403)
    return [
        Op(f"served/{i}-n{n}", _uncertain(random_query(n, rng)), "lec", MEMORY, {}, "served")
        for i, n in enumerate((3, 4, 5, 6, 3, 4, 5, 6))
    ]


OPS: List[Op] = (
    _parity_and_golden() + _batch() + _counters() + _replay() + _probe()
    + _bushy() + _small() + _served()
)
FAMILIES = tuple(dict.fromkeys(op.family for op in OPS))


# -- perturbations: an op asked otherwise (``test_warm.py``) --------------


def _up(doc, path):
    """A copy of ``doc`` with the float at ``path`` one ulp up."""
    doc = copy.deepcopy(doc)
    node = doc
    for key in path[:-1]:
        node = node[key]
    node[path[-1]] = float(np.nextafter(node[path[-1]], np.inf))
    return doc


def _buckets(doc, field, path=()):
    """The path of every bucket value of every ``field`` distribution in ``doc``."""
    if isinstance(doc, list):
        for i, item in enumerate(doc):
            yield from _buckets(item, field, path + (i,))
    elif isinstance(doc, dict):
        for key, item in doc.items():
            if key == field and item:
                yield from (path + (key, "values", i) for i in range(len(item["values"])))
            else:
                yield from _buckets(item, field, path + (key,))


def one_ulp(op: Op, field: str, pick: int) -> Optional[Op]:
    """``op`` with bucket ``pick`` (modulo their count) of one ``field``
    distribution of its query (``"pages_dist"``, ``"selectivity_dist"``) —
    or, for ``"memory"``, of its memory — one ulp up; None if it has none."""
    if field == "memory":
        doc = encode_memory(op.memory)
        key = {"scalar": "value", "distribution": "values",
               "markov_parameter": "states"}[doc["kind"]]
        paths = [(key,)] if key == "value" else [(key, i) for i in range(len(doc[key]))]
        return op._replace(memory=decode_memory(_up(doc, paths[pick % len(paths)])))
    doc = query_to_dict(op.query)
    paths = list(_buckets(doc, field))
    if not paths:
        return None
    return op._replace(query=query_from_dict(_up(doc, paths[pick % len(paths)])))


_OTHER_SPACE = {"left-deep": "zig-zag", "zig-zag": "left-deep", "bushy": "zig-zag"}


def one_knob(op: Op, knob: str) -> Op:
    """``op`` with ``knob`` moved: ``top_k`` + 1, ``max_buckets`` halved, a
    flag flipped, an ordered ``plan_space`` swapped (an SPJU op moves ``top_k``)."""
    knobs = {"top_k": 1, "plan_space": "left-deep", "allow_cross_products": False,
             "max_buckets": 16, **op.knobs}
    if knob == "plan_space" and knobs[knob] not in _OTHER_SPACE:
        knob = "top_k"
    value = knobs[knob]
    moved = (_OTHER_SPACE[value] if knob == "plan_space" else value + 1 if knob == "top_k"
             else value // 2 if knob == "max_buckets" else not value)
    return op._replace(knobs={**op.knobs, knob: moved})


def rebuilt(op: Op) -> Op:
    """``op`` on equal-valued query and memory objects, decoded from their documents."""
    return op._replace(query=query_from_dict(query_to_dict(op.query)),
                       memory=decode_memory(encode_memory(op.memory)))
