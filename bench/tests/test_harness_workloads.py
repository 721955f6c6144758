import pytest

from bench.metrics import WORKLOADS
from bench.workloads import build


@pytest.mark.parametrize("name", WORKLOADS)
def test_same_seed_same_op_list_other_seed_other_list(name):
    first = build(name, seed=5, scale=0.02)
    again = build(name, seed=5, scale=0.02)
    other = build(name, seed=6, scale=0.02)
    assert first.oplist_sha1 == again.oplist_sha1
    assert first.stream == again.stream
    assert first.oplist_sha1 != other.oplist_sha1
    assert len(first.stream) % first.segment_ops == 0
    assert first.segment(0) == list(range(first.segment_ops))


def test_full_size_workloads_have_the_documented_shape():
    bushy = build("dp_bushy", seed=11)
    assert bushy.segment_ops == len(bushy.stream) >= 100
    small = build("dp_small", seed=11)
    assert small.segment_ops == 240
    assert {op.objective for op in small.stream} == {
        "lec", "point", "multiparam", "algorithm_a", "algorithm_b", "markov"}
    churn = build("cluster_churn", seed=11)
    assert (len(churn.queries), churn.segment_ops, churn.bump_every) == (400, 500, 250)


def test_cluster_zipf_stream_is_longer_than_a_segment():
    zipf = build("cluster_zipf", seed=5, scale=0.02)
    assert len(zipf.stream) == 16 * zipf.segment_ops
    assert zipf.segment(1)[0] == zipf.segment_ops
    assert zipf.segment(16) == zipf.segment(0)  # cyclic


def test_per_op_counts_repeat_exactly_for_a_fixed_seed():
    from bench.run import run_workload

    runs = [run_workload("dp_small", seed=7, seconds=0, trace=True, smoke=True)
            for _ in range(2)]
    assert runs[0]["failed"] == runs[1]["failed"] == 0
    assert runs[0]["oplist_sha1"] == runs[1]["oplist_sha1"]
    counts = [
        {k: v for k, v in run["per_layer"].items()
         if k.endswith("_per_op") or k.endswith("memo_hit_rate")}
        for run in runs
    ]
    assert counts[0] == counts[1]
    assert counts[0]["optimizer.systemr.subsets_per_op"] > 0
    assert counts[0]["core.parallel.pool_tasks_per_op"] == 0  # default knobs
