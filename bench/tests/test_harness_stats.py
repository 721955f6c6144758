import pytest

from bench.stats import (
    percentile,
    segment_summary,
    spread,
    supported_percentile,
)


def test_percentile_is_nearest_rank():
    samples = list(range(1, 101))
    assert percentile(samples, 50) == 50
    assert percentile(samples, 90) == 90
    assert percentile(samples, 100) == 100
    assert percentile([7.0], 90) == 7.0
    with pytest.raises(ValueError):
        percentile([], 50)


@pytest.mark.parametrize("n, expected", [
    (19, 0), (20, 50), (99, 50), (100, 90), (999, 90), (1000, 99),
])
def test_highest_percentile_with_ten_samples_beyond(n, expected):
    assert supported_percentile(n) == expected


def test_the_median_segment_is_reported_with_all_segments_and_their_spread():
    assert spread([10.0, 12.0, 11.0]) == pytest.approx(2.0 / 11.0)
    assert spread([5.0]) == 0.0
    summary = segment_summary([10.0, 12.0, 11.0, 30.0])
    assert summary["value"] == 11.5  # one disturbed segment does not decide it
    assert summary["segments"] == [10.0, 12.0, 11.0, 30.0]
    assert summary["spread"] == pytest.approx(20.0 / 11.5)


def test_host_normalisation_arithmetic():
    from bench import harness
    from bench.harness import FULL, OK, PROBE_REF_S, Segment, host_factor

    assert host_factor([PROBE_REF_S] * 9) == 1.0
    # The median probe decides: one 50 ms stall among them changes nothing.
    assert host_factor([3 * PROBE_REF_S] * 8 + [0.05]) == pytest.approx(3.0)

    # A host running 2x slow: 100 ops in 2 s at 20 ms each read as 100 ops/s
    # at 10 ms, and 2 CPU-seconds as 10 ms per op.
    seg = Segment(list(range(100)), [0.020] * 100, [1.0] * 100, [OK | FULL] * 100,
                  probes=[2 * PROBE_REF_S] * 10, wall=2.0, cpu=2.0)
    metrics = harness._segment_metrics(seg, [False] * 100)
    assert metrics["throughput_ops_s"] == pytest.approx(100.0)
    assert metrics["latency_p50_ms"] == pytest.approx(10.0)
    assert metrics["latency_p90_ms"] == pytest.approx(10.0)
    assert metrics["cpu_ms_per_op"] == pytest.approx(10.0)
    # Ops that failed a check are not throughput.
    wrong = [True] * 10 + [False] * 90
    assert harness._segment_metrics(seg, wrong)["throughput_ops_s"] == pytest.approx(90.0)
