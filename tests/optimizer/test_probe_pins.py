"""Algorithms A and B's answers (``c`` 1-3, on a memory whose mean is a
bucket and on one whose mean is not): the ``probe`` ops of the answer
corpus (``tests/corpus``), checked against their recorded lines."""

import itertools

from ..corpus.ops import OPS
from ..corpus.test_corpus import _recorded, assert_replays, corpus_ops

PROBE = [op for op in OPS if op.family == "probe"]


def test_the_mix_is_what_the_docstring_says():
    assert len(PROBE) == 24
    assert len({op.id for op in PROBE}) == len(PROBE)
    assert all(op.id in _recorded() for op in PROBE)
    assert {len(op.query.relations) for op in PROBE} == {3, 4, 5, 6}
    spaces = ("left-deep", "zig-zag", "bushy")
    assert {
        (op.id.split("/")[1].split("-")[0].rstrip("3456"), op.knobs["plan_space"])
        for op in PROBE
    } == set(itertools.product(("chain", "star", "clique"), spaces))
    assert {(op.objective, op.knobs["top_k"]) for op in PROBE} == {
        ("algorithm_a", 1), ("algorithm_b", 2), ("algorithm_b", 3)
    }
    assert {op.memory.mean() in op.memory.support() for op in PROBE} == {True, False}
    assert any(op.query.required_order is not None for op in PROBE)


@corpus_ops("probe")
def test_answer_is_the_recorded_one(op_id):
    assert_replays(op_id)
