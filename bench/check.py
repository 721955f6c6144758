"""Answer checks.  A wrong or stale plan is a failed operation, not a fast one.

Every check marks the ops it condemns; the harness counts them into
``failed`` (and so into ``failed_share``).  References are computed here,
for whatever seed was given — nothing is pinned to a particular seed.

(1) every returned plan, re-costed by the independent per-bucket path
    (``CostModel.plan_expected_cost`` / ``plan_expected_cost_markov`` /
    ``plan_expected_cost_multiparam``), equals the reported objective
    within ``REL_TOL`` — a tolerance, not bit equality, so a fix to the
    kernel's mass guard does not invalidate the benchmark;
(2) ``dp_small``, queries of up to 4 relations: the ``lec`` and ``point``
    winners equal the optimum of ``exhaustive_best`` over every left-deep
    plan;
(3) per query, E[cost of the ``point`` plan] >= the ``lec`` objective
    (paper C2);
(4) service/cluster: the objective equals ``repro.optimize`` called
    directly, and the full rung answered;
(5) ``cluster_churn``: the first answer for a key after a version bump is
    not a cache hit, and no request is lost.
"""

from __future__ import annotations

import math
from typing import Any, Dict, List, Sequence, Tuple

import repro
from repro import CostModel, exhaustive_best, plan_expected_cost_multiparam
from repro.tools.serialize import plan_from_dict

from .harness import FULL, HIT, OK, Segment
from .workloads import MEMORY, Op, Workload

__all__ = ["REL_TOL", "close", "recost", "references", "check_library",
           "check_served", "Verdict"]

REL_TOL = 1e-6


def close(a: float, b: float) -> bool:
    if math.isnan(a) or math.isnan(b):
        return False
    return abs(a - b) <= REL_TOL * max(abs(a), abs(b), 1.0)


def recost(cm: CostModel, op: Op, plan, query) -> float:
    """The plan's objective by the per-bucket path, not the DP's own."""
    kwargs = op.kwargs()
    if op.objective == "point":
        return cm.plan_cost(plan, query, float(MEMORY.mean()))
    if op.objective == "markov":
        return cm.plan_expected_cost_markov(plan, query, op.memory)
    if op.objective == "multiparam":
        return plan_expected_cost_multiparam(
            plan, query, MEMORY, cost_model=cm,
            fast=kwargs.get("fast", False),
        )
    # lec, algorithm_a, algorithm_b: expected cost under the memory law.
    return cm.plan_expected_cost(plan, query, MEMORY)


class Verdict:
    """Which ops failed, per segment, and why (first few reasons)."""

    def __init__(self, segments: Sequence[Segment]):
        self.bad: List[List[bool]] = [[False] * s.n for s in segments]
        self.reasons: List[str] = []

    def fail(self, k: int, j: int, reason: str) -> None:
        if not self.bad[k][j]:
            self.bad[k][j] = True
            if len(self.reasons) < 20:
                self.reasons.append(reason)

    @property
    def failed(self) -> int:
        return sum(sum(row) for row in self.bad)


def _unanswered(segments: Sequence[Segment], verdict: Verdict) -> None:
    for k, seg in enumerate(segments):
        for j, flags in enumerate(seg.flags):
            if not flags & OK:
                verdict.fail(k, j, f"segment {k} op {j}: raised, shed, error or lost")


def check_library(workload: Workload, segments: Sequence[Segment]) -> Verdict:
    """Checks (1)-(3) on the last segment's results; every other segment
    must reproduce that segment's objectives (the DP is deterministic)."""
    verdict = Verdict(segments)
    _unanswered(segments, verdict)
    last = len(segments) - 1
    final = segments[last]
    cm = CostModel()
    by_query: Dict[int, Dict[str, Tuple[int, Any]]] = {}
    for j, pos in enumerate(final.positions):
        result = final.results[j]
        if result is None:
            continue
        op = workload.stream[pos]
        query = workload.queries[op.query]
        by_query.setdefault(op.query, {})[op.objective] = (j, result)
        again = recost(cm, op, result.plan, query)
        if not close(again, result.objective):
            verdict.fail(last, j, f"(1) {op.objective} on query {op.query}: "
                         f"reported {result.objective!r}, re-costed {again!r}")

    for q, answers in by_query.items():
        query = workload.queries[q]
        lec, point = answers.get("lec"), answers.get("point")
        if lec and point:
            expected_of_point = cm.plan_expected_cost(point[1].plan, query, MEMORY)
            if expected_of_point < lec[1].objective * (1.0 - REL_TOL):
                verdict.fail(last, lec[0], f"(3) query {q}: E[point plan] "
                             f"{expected_of_point!r} < lec {lec[1].objective!r}")
        if lec and point and len(query.relations) <= workload.exhaustive_upto:
            mean = float(MEMORY.mean())
            best_point = [math.inf]

            def expected(plan, query=query, best_point=best_point):
                best_point[0] = min(best_point[0], cm.plan_cost(plan, query, mean))
                return cm.plan_expected_cost(plan, query, MEMORY)

            best_lec, _ = exhaustive_best(query, expected, cm.methods)
            if not close(best_lec.objective, lec[1].objective):
                verdict.fail(last, lec[0], f"(2) query {q}: lec {lec[1].objective!r}"
                             f" != exhaustive {best_lec.objective!r}")
            if not close(best_point[0], point[1].objective):
                verdict.fail(last, point[0], f"(2) query {q}: point "
                             f"{point[1].objective!r} != exhaustive {best_point[0]!r}")

    for k, seg in enumerate(segments[:-1]):
        for j in range(seg.n):
            if seg.flags[j] & OK and not close(seg.objective[j], final.objective[j]):
                verdict.fail(k, j, f"segment {k} op {j}: objective differs "
                             "from the checked segment's")
    return verdict


def references(workload: Workload) -> List[float]:
    """The direct ``repro.optimize`` objective of every distinct query."""
    repro.clear_context_cache()
    return [
        repro.optimize(query, "lec", memory=MEMORY).objective
        for query in workload.queries
    ]


def check_served(workload: Workload, segments: Sequence[Segment],
                 reference: Sequence[float], plans: Dict[int, Any]) -> Verdict:
    """Checks (1), (4) and — where the workload bumps versions — (5)."""
    verdict = Verdict(segments)
    _unanswered(segments, verdict)
    stream = workload.stream

    cm = CostModel()
    wrong_plan = set()
    for q, plan in plans.items():
        if isinstance(plan, dict):
            plan = plan_from_dict(plan)
        again = cm.plan_expected_cost(plan, workload.queries[q], MEMORY)
        if not close(again, reference[q]):
            wrong_plan.add(q)

    for k, seg in enumerate(segments):
        for j, pos in enumerate(seg.positions):
            flags = seg.flags[j]
            if not flags & OK:
                continue
            q = stream[pos].query
            if not close(seg.objective[j], reference[q]):
                verdict.fail(k, j, f"(4) query {q}: served {seg.objective[j]!r}, "
                             f"direct {reference[q]!r}")
            elif not flags & FULL:
                verdict.fail(k, j, f"(4) query {q}: answered below the full rung")
            elif q in wrong_plan:
                verdict.fail(k, j, f"(1) query {q}: served plan re-costs "
                             "to a different objective")
        if workload.bump_every is None:
            continue
        # (5) Ops are issued in index order, so within an epoch the first
        # index carrying a key is the first request for it after the bump.
        for start in seg.first_after_bump:
            seen = set()
            for j in range(start, min(start + workload.bump_every, seg.n)):
                q = stream[seg.positions[j]].query
                if q in seen:
                    continue
                seen.add(q)
                if seg.flags[j] & HIT:
                    verdict.fail(k, j, f"(5) query {q}: cache hit on the first "
                                 "request after a version bump (stale plan)")
    return verdict
