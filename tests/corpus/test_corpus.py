"""The answer corpus: every op of :mod:`.ops` answers as ``answers.jsonl`` says.

The paper's results are claims about which plan least-expected-cost
optimization picks and at exactly what expected cost, so "the same
behaviour" is a set of recorded answers.  ``answers.jsonl`` holds one
line per op: the winner's signature, ``repr(objective)``, the candidate
list, the six ``OptimizerStats`` counters, and the hits and misses of
every memo layer the cold context's ``stats()`` reports.  Each op is
replayed through :func:`repro.optimize` on a fresh context (the whole
line must repeat) and through ``OptimizerService`` (signature and
objective: a ``ServingResult`` carries no stats); the ``served`` family
also through a 2-shard gateway, twice around a catalog version bump,
each op followed by twins one ulp away in a selectivity and a memory
bucket (misses with their own cold answers) and by its query and memory
rebuilt from their documents (a tier hit): the warm property's gateway
front (``test_warm.py`` holds the others).

Re-recording is one rule.  ``PYTHONPATH=src python -m
tests.corpus.test_corpus`` (from the repo root) replays every op,
prints how many ops moved per field and rewrites ``answers.jsonl`` —
unless an answer (signature, objective or candidates) moved: then it
writes nothing and exits 1.  A counter may move; the change that moves
it says why.
"""

from __future__ import annotations

import asyncio
import dataclasses
import functools
import json
import sys
from pathlib import Path
from types import SimpleNamespace
from typing import Dict, Iterable, List

import pytest

import repro
from repro.cluster import ClusterGateway
from repro.costmodel.context import OptimizationContext
from repro.serving.service import OptimizerService

from .ops import FAMILIES, OPS, Op, one_ulp, rebuilt

ANSWERS = Path(__file__).with_name("answers.jsonl")
#: The fields a re-record may never move.
ANSWER_FIELDS = ("signature", "objective", "candidates")


def answer(op: Op) -> dict:
    """``op``'s line, from ``repro.optimize`` on a fresh context."""
    context = OptimizationContext(op.query)
    result = repro.optimize(op.query, op.objective, memory=op.memory, context=context,
                            **op.knobs)
    memos = context.stats()
    return {
        "id": op.id,
        "signature": result.plan.signature(),
        "objective": repr(result.objective),
        "candidates": [[c.plan.signature(), repr(c.objective)] for c in result.candidates],
        **dataclasses.asdict(result.stats),
        **{name: [memo["hits"], memo["misses"]] for name, memo in memos.items()},
    }


def read(path: Path = ANSWERS) -> Dict[str, dict]:
    """The recorded lines, by op id, in file order."""
    lines = (json.loads(text) for text in path.read_text().splitlines())
    return {line["id"]: line for line in lines}


def moved(old: Dict[str, dict], new: Dict[str, dict]) -> Dict[str, List[str]]:
    """``field -> [op id, ...]``: where ``new``'s lines differ from ``old``'s,
    a field either line lacks included."""
    changes: Dict[str, List[str]] = {}
    for op_id, line in new.items():
        if op_id not in old:
            changes.setdefault("(new op)", []).append(op_id)
            continue
        for field in {**old[op_id], **line}:
            if old[op_id].get(field) != line.get(field):
                changes.setdefault(field, []).append(op_id)
    return changes


def record(path: Path = ANSWERS, ops: Iterable[Op] = OPS) -> int:
    """Replay ``ops`` and rewrite ``path``; 1, nothing written, if an answer moved."""
    fresh = {op.id: answer(op) for op in ops}
    old = read(path) if path.exists() else {}
    changes = moved(old, fresh)
    for field, ids in sorted(changes.items()):
        print(f"{field}: moved in {len(ids)} of {len(fresh)} ops")
    gone = [op_id for op_id in old if op_id not in fresh]
    if gone:
        print(f"(gone op): {len(gone)} recorded ops are not replayed: {', '.join(gone)}")
    refused = [field for field in ANSWER_FIELDS if field in changes]
    for field in refused:
        print(f"refused, {field} moved: {', '.join(changes[field])}")
    if refused:
        return 1
    path.write_text("".join(json.dumps(line) + "\n" for line in fresh.values()))
    print(f"wrote {len(fresh)} answers to {path.name}")
    return 0


_recorded = functools.lru_cache(maxsize=None)(read)  # answers.jsonl, read once
_BY_ID = {op.id: op for op in OPS}


@functools.lru_cache(maxsize=None)
def _replayed(op_id: str) -> dict:
    return answer(_BY_ID[op_id])


def assert_replays(*op_ids: str) -> None:
    """Each op's fresh line is its recorded one; else name every field that
    moved and the ops it moved in.  An op is replayed once per process."""
    changes = moved(_recorded(), {op_id: _replayed(op_id) for op_id in op_ids})
    assert not changes, "\n".join(f"{f} moved: {', '.join(ids)}" for f, ids in changes.items())


def corpus_ops(family: str, numbered: bool = False):
    """Parametrize ``op_id`` over ``family``'s ops, each test id the op id
    without its family prefix — or, ``numbered``, ``case0``, ``case1``, …
    in sorted op id order."""
    ids = [op.id for op in OPS if op.family == family]
    if numbered:
        ids.sort()
        return pytest.mark.parametrize("op_id", ids, ids=[f"case{i}" for i in range(len(ids))])
    return pytest.mark.parametrize("op_id", ids, ids=[i.split("/", 1)[1] for i in ids])


def _wrong(ops, results) -> List[str]:
    """The ids of ``ops`` whose served winner or objective is not the recorded one."""
    return [
        op.id for op, result in zip(ops, results)
        if (result.plan.signature(), repr(result.objective_value))
        != (_recorded()[op.id]["signature"], _recorded()[op.id]["objective"])
    ]


def test_the_corpus_is_what_ops_says():
    counts = {family: sum(op.family == family for op in OPS) for family in FAMILIES}
    assert counts == {
        "parity": 15, "golden": 32, "batch": 35, "counters": 8, "replay": 66,
        "probe": 24, "bushy": 14, "small": 18, "served": 8,
    }
    assert list(_recorded()) == [op.id for op in OPS]  # one line per op, in order


@pytest.mark.parametrize("family", FAMILIES)
def test_the_library_answers_as_recorded(family):
    assert_replays(*(op.id for op in OPS if op.family == family))


def test_the_service_answers_as_recorded():
    with OptimizerService(max_workers=1) as service:
        wrong = _wrong(OPS, [service.execute(op.request()) for op in OPS])
    assert not wrong


def test_the_gateway_answers_as_recorded_around_a_bump():
    asked, cold = [], []  # each served op, its two ulp twins, its rebuilt twin
    for op in (op for op in OPS if op.family == "served"):
        moved = [one_ulp(op, "selectivity_dist", 0), one_ulp(op, "memory", 1)]
        asked += [op, *moved, rebuilt(op)]
        lines = [_recorded()[op.id], *map(answer, moved), _recorded()[op.id]]
        cold += [(line["signature"], line["objective"]) for line in lines]
    source = SimpleNamespace(version=0)

    async def one_client():
        answers = []
        async with ClusterGateway(shards=2, catalog_sources=[source]) as gw:
            for _ in range(2):
                for op in asked:
                    answers.append(await asyncio.wait_for(gw.optimize(op.request()), 60))
                source.version += 1  # every len(asked) answers; the workers remember
            return answers, await gw.snapshot()

    answers, snapshot = asyncio.run(one_client())
    assert len(answers) == 2 * len(asked)  # none lost
    assert all(r.ok for r in answers), [r.error for r in answers if not r.ok]
    assert [(r.plan.signature(), repr(r.objective_value)) for r in answers] == cold + cold
    # the bump misses every op; each rebuilt twin hits the entry its op filled
    assert [r.cache_tier == "shared" for r in answers] == [i % 4 == 3 for i in range(len(answers))]
    assert snapshot["worker_memo"]["remembered"] > 0


def assert_recorder_refuses(op: Op, answer_field: str, path: Path) -> None:
    """``op``'s line with ``answer_field`` doctored makes the recorder refuse
    (exit 1, ``path`` untouched); with a counter doctored, it rewrites it."""
    line = _recorded()[op.id]
    path.write_text(json.dumps(dict(line, **{answer_field: "0.0"})) + "\n")
    before = path.read_bytes()
    assert record(path, [op]) == 1
    assert path.read_bytes() == before

    path.write_text(json.dumps(dict(line, merge_probes=line["merge_probes"] + 1)) + "\n")
    assert record(path, [op]) == 0
    assert read(path) == {op.id: line}


def test_the_recorder_refuses_a_moved_answer_and_writes_a_moved_counter(tmp_path):
    assert_recorder_refuses(OPS[0], "objective", tmp_path / ANSWERS.name)


def test_the_recorder_names_a_dropped_field_and_a_dropped_op(tmp_path, capsys):
    line = _recorded()[OPS[0].id]
    path = tmp_path / ANSWERS.name
    path.write_text(json.dumps(dict(line, retired_counter=[1, 2])) + "\n"
                    + json.dumps(dict(line, id="retired/op")) + "\n")
    assert record(path, [OPS[0]]) == 0
    out = capsys.readouterr().out
    assert "retired_counter: moved in 1 of 1 ops" in out
    assert "(gone op): 1 recorded ops are not replayed: retired/op" in out
    assert read(path) == {OPS[0].id: line}


def test_every_memo_layer_is_probed_by_the_corpus():
    # A memo stays only where a measured run reads it: every layer a
    # context reports is looked up somewhere in the corpus's cold runs.
    layers = OptimizationContext(OPS[0].query).stats()
    probes = {
        name: sum(sum(line.get(name, (0, 0))) for line in _recorded().values())
        for name in layers
    }
    assert all(probes.values()), f"never probed: {[n for n, p in probes.items() if not p]}"


if __name__ == "__main__":
    sys.exit(record())
