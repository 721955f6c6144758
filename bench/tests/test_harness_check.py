"""The checks must be able to fail: tamper with answers and see them caught."""

from bench import check, harness
from bench.harness import HIT
from bench.workloads import build


def _library_run():
    workload = build("dp_small", seed=9, scale=0.02)
    runner = harness.make_runner(workload)
    segments, _ = harness.measure(workload, runner, 0.0, 2, None)
    return workload, segments


def test_clean_library_run_passes_and_a_wrong_objective_fails():
    workload, segments = _library_run()
    assert check.check_library(workload, segments).failed == 0

    result = segments[-1].results[0]
    result.best = type(result.best)(plan=result.plan,
                                    objective=result.objective * 1.001)
    verdict = check.check_library(workload, segments)
    assert verdict.bad[-1][0]
    assert any(reason.startswith("(1)") for reason in verdict.reasons)


def test_an_earlier_segment_must_reproduce_the_checked_one():
    workload, segments = _library_run()
    segments[0].objective[3] *= 1.01
    verdict = check.check_library(workload, segments)
    assert verdict.failed == 1 and verdict.bad[0][3]


def test_an_unanswered_op_is_a_failed_op():
    workload, segments = _library_run()
    segments[0].flags[1] = 0
    assert check.check_library(workload, segments).bad[0][1]


def test_served_answers_are_held_to_the_direct_optimum_and_to_freshness():
    workload = build("serve_hot", seed=9, scale=0.02)
    runner = harness.make_runner(workload)
    runner.start()
    try:
        segments, _ = harness.measure(workload, runner, 0.0, 1, None)
    finally:
        runner.stop()
    reference = check.references(workload)
    assert check.check_served(workload, segments, reference, runner.plans).failed == 0

    segments[0].objective[0] *= 1.5
    verdict = check.check_served(workload, segments, reference, runner.plans)
    assert verdict.failed == 1 and verdict.reasons[0].startswith("(4)")

    # A hit on the first request after a version bump is a stale plan.
    workload.bump_every = workload.segment_ops
    segments[0].objective[0] /= 1.5
    segments[0].first_after_bump = [0]
    segments[0].flags[0] |= HIT
    verdict = check.check_served(workload, segments, reference, runner.plans)
    assert verdict.bad[0][0] and verdict.reasons[0].startswith("(5)")
