"""The DP's answers over every plan space, objective, ``top_k`` 1 and 3 and
cross products: the ``replay`` ops of the answer corpus (``tests/corpus``),
checked against their lines under their old ids."""

from ..corpus.ops import OPS
from ..corpus.test_corpus import (
    _recorded, assert_recorder_refuses, assert_replays, corpus_ops,
)

REPLAY = [op for op in OPS if op.family == "replay"]


def test_the_mix_is_what_the_docstring_says():
    assert len(REPLAY) == 66
    assert len({op.id for op in REPLAY}) == len(REPLAY)
    assert all(op.id in _recorded() for op in REPLAY)
    assert sum(op.knobs.get("allow_cross_products", False) for op in REPLAY) == 2
    assert {op.knobs["plan_space"] for op in REPLAY} == {
        "bushy", "zig-zag", "left-deep", "spju"
    }
    assert {op.knobs.get("top_k", 1) for op in REPLAY} == {1, 3}
    assert {op.objective for op in REPLAY} == {"point", "lec", "markov", "multiparam"}


@corpus_ops("replay")
def test_answer_is_the_recorded_one(op_id):
    assert_replays(op_id)


def test_rerecord_names_what_moved(tmp_path):
    op = next(op for op in REPLAY if op.knobs.get("top_k") == 3)
    assert_recorder_refuses(op, "candidates", tmp_path / "answers.jsonl")
