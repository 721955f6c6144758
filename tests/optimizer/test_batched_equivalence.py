"""Batched level evaluation must be invisible in every observable output.

``SystemRDP`` decides by itself whether a DP level's join steps go
through the coster's vectorized ``prefetch_join_steps`` or are evaluated
one call at a time; these tests force each path through the engine's
private ``_batch_steps`` attribute (a test seam, not an argument).  The
contract is *bit-identical* results: same winning plan, same objective
to the last ulp, and — where the prefetch mirrors on-demand evaluation
one-for-one (no pruning) — the same ``formula_evaluations`` accounting.
These tests drive that contract across every coster (algorithms A–D
share them), every plan space, and the seeded randomized search.
"""

from __future__ import annotations

import math

import numpy as np
import pytest

from repro.core.algorithm_d import (
    optimize_algorithm_d,
    plan_expected_cost_multiparam,
)
from repro.core.context import OptimizationContext
from repro.core.distributions import DiscreteDistribution
from repro.core.markov import MarkovParameter
from repro.optimizer.costers import (
    ExpectedCoster,
    MarkovCoster,
    MultiParamCoster,
    PointCoster,
)
from repro.optimizer.randomized import iterative_improvement
from repro.optimizer.systemr import SystemRDP
from repro.workloads.queries import (
    chain_query,
    random_query,
    star_query,
    with_selectivity_uncertainty,
    with_size_uncertainty,
)

MEMORY = DiscreteDistribution([2000.0, 300.0], [0.7, 0.3])


def _queries():
    rng = np.random.default_rng(11)
    plain = [
        chain_query(4, rng),
        star_query(4, rng),
        chain_query(4, rng, require_order=True),
        random_query(4, rng, min_pages=200, max_pages=120000, rows_per_page=100),
    ]
    return [
        with_selectivity_uncertainty(with_size_uncertainty(q, 0.8), 0.8)
        for q in plain
    ]


QUERIES = _queries()


def _coster(kind: str):
    if kind == "point":
        return PointCoster(1200.0)
    if kind == "expected":
        return ExpectedCoster(MEMORY)
    if kind == "markov":
        chain = MarkovParameter(
            [300.0, 2000.0],
            [0.3, 0.7],
            [[0.6, 0.4], [0.2, 0.8]],
        )
        return MarkovCoster(chain)
    if kind == "multiparam-fast":
        return MultiParamCoster(MEMORY, fast=True)
    if kind == "multiparam-naive":
        return MultiParamCoster(MEMORY, fast=False)
    raise AssertionError(kind)


def _run(kind: str, query, space: str, batching: bool, **engine_args):
    engine = SystemRDP(
        _coster(kind),
        plan_space=space,
        context=OptimizationContext(query),
        **engine_args,
    )
    engine._batch_steps = batching
    return engine.optimize(query)


COSTER_KINDS = [
    "point", "expected", "markov", "multiparam-fast", "multiparam-naive",
]


class TestLevelBatchingEquivalence:
    @pytest.mark.parametrize("kind", COSTER_KINDS)
    @pytest.mark.parametrize("qidx", range(len(QUERIES)))
    def test_left_deep_bitwise_and_eval_parity(self, kind, qidx):
        query = QUERIES[qidx]
        seq = _run(kind, query, "left-deep", batching=False)
        bat = _run(kind, query, "left-deep", batching=True)
        assert bat.plan.signature() == seq.plan.signature()
        assert math.isclose(
            bat.objective, seq.objective, rel_tol=0.0, abs_tol=0.0
        )
        # Without pruning the prefetch replays on-demand evaluation
        # one-for-one, so the paper's effort metric is unchanged too.
        assert (
            bat.stats.formula_evaluations == seq.stats.formula_evaluations
        )

    @pytest.mark.parametrize("kind", ["point", "expected", "multiparam-fast"])
    @pytest.mark.parametrize("space", ["zig-zag", "bushy"])
    def test_enlarged_spaces_same_winner_and_objective(self, kind, space):
        query = QUERIES[0]
        seq = _run(kind, query, space, batching=False)
        bat = _run(kind, query, space, batching=True)
        assert bat.plan.signature() == seq.plan.signature()
        assert math.isclose(
            bat.objective, seq.objective, rel_tol=0.0, abs_tol=0.0
        )

    @pytest.mark.parametrize("kind", COSTER_KINDS)
    def test_candidate_lists_identical_with_top_k(self, kind):
        query = QUERIES[1]
        seq, bat = (
            _run(kind, query, "left-deep", batching, top_k=3)
            for batching in (False, True)
        )
        assert [c.plan.signature() for c in bat.candidates] == [
            c.plan.signature() for c in seq.candidates
        ]
        for b, s in zip(bat.candidates, seq.candidates):
            assert math.isclose(
                b.objective, s.objective, rel_tol=0.0, abs_tol=0.0
            )


class TestAlgorithmDEndToEnd:
    @pytest.mark.parametrize("fast", [False, True])
    @pytest.mark.parametrize("space", ["left-deep", "zig-zag", "bushy"])
    def test_algorithm_d_batched_matches_sequential(self, fast, space):
        query = QUERIES[3]
        kind = "multiparam-fast" if fast else "multiparam-naive"
        seq = _run(kind, query, space, batching=False)
        bat = _run(kind, query, space, batching=True)
        assert bat.plan.signature() == seq.plan.signature()
        assert math.isclose(
            bat.objective, seq.objective, rel_tol=0.0, abs_tol=0.0
        )

    def test_whole_plan_evaluator_fast_matches_naive(self):
        query = QUERIES[0]
        plan = optimize_algorithm_d(query, MEMORY, fast=True).plan
        naive = plan_expected_cost_multiparam(plan, query, MEMORY, fast=False)
        fast = plan_expected_cost_multiparam(plan, query, MEMORY, fast=True)
        assert fast == pytest.approx(naive, rel=1e-9)

    def test_whole_plan_evaluator_batching_is_deterministic(self):
        query = QUERIES[1]
        plan = optimize_algorithm_d(query, MEMORY, fast=True).plan
        first = plan_expected_cost_multiparam(plan, query, MEMORY, fast=True)
        again = plan_expected_cost_multiparam(plan, query, MEMORY, fast=True)
        assert math.isclose(first, again, rel_tol=0.0, abs_tol=0.0)


class TestRandomizedSearchDeterminism:
    def test_seeded_search_with_batched_scorer_is_reproducible(self):
        # DET001 discipline: the only randomness is the caller's seeded
        # generator, so two runs with equal seeds must tie-break the
        # same way even though the scorer routes through the batched
        # kernel (shared context memo included).
        query = QUERIES[3]
        outcomes = []
        for _ in range(2):
            rng = np.random.default_rng(99)
            context = OptimizationContext(query)
            res = iterative_improvement(
                query,
                lambda p: plan_expected_cost_multiparam(
                    p, query, MEMORY, fast=True, context=context
                ),
                rng,
                n_restarts=3,
                max_steps=40,
            )
            outcomes.append((res.plan.signature(), res.objective))
        assert outcomes[0][0] == outcomes[1][0]
        assert math.isclose(
            outcomes[0][1], outcomes[1][1], rel_tol=0.0, abs_tol=0.0
        )

    def test_batched_and_sequential_scorers_pick_same_plan(self):
        query = QUERIES[0]
        picks = []
        for fast in (False, True):
            rng = np.random.default_rng(5)
            res = iterative_improvement(
                query,
                lambda p, _f=fast: plan_expected_cost_multiparam(
                    p, query, MEMORY, fast=_f
                ),
                rng,
                n_restarts=2,
                max_steps=30,
            )
            picks.append(res.plan.signature())
        assert picks[0] == picks[1]
