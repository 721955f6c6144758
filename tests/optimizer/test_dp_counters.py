"""The DP's counters and winner for one case per plan space, coster and
engine option: the ``counters`` ops of the answer corpus (``tests/corpus``),
checked against their lines under their old ids."""

from ..corpus.test_corpus import _recorded, assert_replays, corpus_ops, moved


@corpus_ops("counters")
def test_counters_and_winner_are_pinned(op_id):
    assert_replays(op_id)


def test_rerecord_names_what_moved():
    case = "counters/bushy-chain8-lec"
    pinned = {case: _recorded()[case]}
    line = pinned[case]
    doctored = {case: dict(line, entries_offered=line["entries_offered"] + 1,
                           merge_probes=line["merge_probes"] + 1, signature="R0")}
    assert moved(pinned, pinned) == {}
    assert moved(pinned, doctored) == {
        "entries_offered": [case], "merge_probes": [case], "signature": [case],
    }
