"""The batch contract of the costers, stated directly.

``SystemRDP`` costs every DP level through ``Coster.prefetch_join_steps``
— one call per presorted-flag pair, one cost list per join method back —
and never calls ``join_step_cost``; the scalar method stays as the
reference the columns are held to:

    ``coster.prefetch_join_steps(phase, lps, rps, pairs)
    == [[coster.join_step_cost(m, l, r, phase, lps, rps) for l, r in pairs]
        for m in coster.methods]``

bit for bit, in Python floats, where the scalar side runs on a cold
context.  A column reads and writes no step memo (a DP level names each
pair once, so a memo there only missed): its ``eval_count`` is the
scalar loop's for distinct pairs, a repeated pair is costed again, and
steps the scalar path memoized on the batch's context beforehand change
nothing — neither on a half-warm context nor with one method's steps
memoized.  Checked also under a one-bucket memory, over a both-presorted
sort-merge column (whose formula ignores memory) and over one-pair
columns, for every coster kind (algorithms A–D share them) and the
dependent Bayes-net one.  ``multiparam-fast`` is Algorithm D at a
coarse ``max_buckets`` of 4, ``multiparam-naive`` at the default 16.

End to end, each coster kind runs as its ``repro.optimize`` objective
in the ``batch`` family of the answer corpus (``tests/corpus``);
``test_end_to_end_golden_pins`` checks those lines under its old ids.
"""

from __future__ import annotations

import itertools
import math

import numpy as np
import pytest

from repro.core.algorithm_d import plan_expected_cost_multiparam
from repro.optimizer import optimize_algorithm_d
from repro.core.bayesnet import DiscreteBayesNet
from repro.core.context import OptimizationContext
from repro.core.distributions import DiscreteDistribution
from repro.core.floats import COST_REL_TOL
from repro.core.markov import MarkovParameter
from repro.optimizer.costers import (
    ExpectedCoster,
    MarkovCoster,
    MultiParamCoster,
    PointCoster,
)
from repro.optimizer.dependent import BayesNetCoster
from repro.optimizer.randomized import iterative_improvement
from repro.workloads.queries import (
    chain_query,
    random_query,
    star_query,
    with_selectivity_uncertainty,
    with_size_uncertainty,
)

from ..corpus.test_corpus import assert_replays, corpus_ops

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


#: One memory bucket: a grid row per step is one formula value.
ONE_BUCKET = DiscreteDistribution([1500.0], [1.0])


def _net():
    net = DiscreteBayesNet()
    net.add_node("load", [0.0, 1.0], probs=[0.6, 0.4])
    net.add_node(
        "M", [2000.0, 500.0], parents=["load"],
        cpt={(0.0,): [0.9, 0.1], (1.0,): [0.2, 0.8]},
    )
    return net


def _one_bucket_net():
    net = DiscreteBayesNet()
    net.add_node("M", [1500.0], probs=[1.0])
    return net


NET = _net()


def _coster(kind: str, one_bucket: bool = False):
    """A coster of ``kind``; with ``one_bucket`` its memory (or chain
    state, or network memory variable) has a single value."""
    memory = ONE_BUCKET if one_bucket else MEMORY
    if kind == "point":
        return PointCoster(1200.0)
    if kind == "expected":
        return ExpectedCoster(memory)
    if kind == "markov":
        if one_bucket:
            return MarkovCoster(MarkovParameter([1500.0], [1.0], [[1.0]]))
        chain = MarkovParameter(
            [300.0, 2000.0],
            [0.3, 0.7],
            [[0.6, 0.4], [0.2, 0.8]],
        )
        return MarkovCoster(chain)
    if kind == "multiparam-fast":
        return MultiParamCoster(memory, max_buckets=4)
    if kind == "multiparam-naive":
        return MultiParamCoster(memory)
    if kind == "bayesnet":
        return BayesNetCoster(_one_bucket_net() if one_bucket else NET)
    raise AssertionError(kind)


COSTER_KINDS = [
    "point", "expected", "markov", "multiparam-fast", "multiparam-naive",
]


# ----------------------------------------------------------------------
# The contract
# ----------------------------------------------------------------------


FLAGS = list(itertools.product((False, True), repeat=2))


def _pairs(query):
    """Every ordered pair of disjoint non-empty relation sets of ``query``."""
    names = sorted(query.relation_names())
    pairs = []
    for assignment in itertools.product((0, 1, 2), repeat=len(names)):
        left = frozenset(n for n, side in zip(names, assignment) if side == 1)
        right = frozenset(n for n, side in zip(names, assignment) if side == 2)
        if left and right:
            pairs.append((left, right))
    return pairs


def _columns(query, flat_phase: bool):
    """Every join step over ``query``'s relations, as the DP asks for them:
    ``(phase, left_presorted, right_presorted, pairs)`` calls, one per
    phase and presorted-flag pair.

    With ``flat_phase`` every pair names phase 0, so one call holds all
    of them -- enough for the array path of every coster; with the true
    phase (relations joined - 2) the calls stay small.
    """
    by_phase = {}
    for left, right in _pairs(query):
        phase = 0 if flat_phase else len(left) + len(right) - 2
        by_phase.setdefault(phase, []).append((left, right))
    return [
        (phase, lps, rps, pairs)
        for phase, pairs in sorted(by_phase.items())
        for lps, rps in FLAGS
    ]


def _steps(methods, columns):
    """The scalar ``join_step_cost`` arguments of ``columns``, in the
    contract's order: per call, method, then pair."""
    return [
        (method, left, right, phase, lps, rps)
        for phase, lps, rps, pairs in columns
        for method in methods
        for left, right in pairs
    ]


def _bound(kind: str, query, one_bucket: bool = False):
    coster = _coster(kind, one_bucket)
    coster.bind(query, OptimizationContext(query))
    return coster


def _assert_batch_is_the_scalar_loop(kind, query, columns, warm=(), one_bucket=False):
    """Each column of the batch against the scalar loop on a cold context.

    ``warm`` steps are costed through the scalar ``join_step_cost`` on the
    batch's context first: the batch neither reads them nor stores
    anything (its ``step_costs`` counters stand still).  Its
    ``eval_count`` is what each of its pairs cost the scalar loop when
    first met cold: a pair repeated in a column is costed again.
    """
    batch = _bound(kind, query, one_bucket)
    scalar = _bound(kind, query, one_bucket)
    for step in warm:
        batch.join_step_cost(*step)
    cold_evals = {}  # scalar step -> eval_count it took on the cold context
    for phase, lps, rps, pairs in columns:
        memo, evals = batch.context.stats()["step_costs"], batch.cost_model.eval_count
        got = batch.prefetch_join_steps(phase, lps, rps, pairs)
        want, want_evals = [], 0
        for m in scalar.methods:
            want.append([])
            for left, right in pairs:
                step = (m, left, right, phase, lps, rps)
                before = scalar.cost_model.eval_count
                want[-1].append(scalar.join_step_cost(*step))
                want_evals += cold_evals.setdefault(
                    step, scalar.cost_model.eval_count - before
                )
        assert got == want  # floats compared exactly: bit for bit
        assert all(type(cost) is float for costs in got for cost in costs)
        assert batch.cost_model.eval_count - evals == want_evals
        assert batch.context.stats()["step_costs"] == memo


METHODS = _coster("point").methods


@pytest.mark.parametrize("flat_phase", [False, True], ids=["phased", "flat"])
@pytest.mark.parametrize("kind", COSTER_KINDS + ["bayesnet"])
class TestBatchContract:
    @pytest.mark.parametrize("qidx", range(len(QUERIES)))
    def test_cold_context(self, kind, qidx, flat_phase):
        query = QUERIES[qidx]
        _assert_batch_is_the_scalar_loop(kind, query, _columns(query, flat_phase))

    def test_half_warm_context(self, kind, flat_phase):
        # Every other step memoized by the scalar path: the batch reads
        # none of them and costs every pair.
        query = QUERIES[3]
        columns = _columns(query, flat_phase)
        _assert_batch_is_the_scalar_loop(
            kind, query, columns, warm=_steps(METHODS, columns)[::2]
        )

    def test_duplicate_requests(self, kind, flat_phase):
        # A pair named twice in a column is costed twice, warm or cold.
        query = QUERIES[0]
        columns = _columns(query, flat_phase)
        doubled = [
            (phase, lps, rps, pairs + pairs[::3] + pairs[:5])
            for phase, lps, rps, pairs in columns
        ]
        _assert_batch_is_the_scalar_loop(kind, query, doubled)
        _assert_batch_is_the_scalar_loop(
            kind, query, doubled, warm=_steps(METHODS, columns)[1::4]
        )

    def test_single_bucket_memory(self, kind, flat_phase):
        # The memory row is (1, 1): every grid is one column wide.
        query = QUERIES[1]
        _assert_batch_is_the_scalar_loop(
            kind, query, _columns(query, flat_phase), one_bucket=True
        )

    def test_both_presorted_sort_merge_column(self, kind, flat_phase):
        # Sort-merge over two presorted inputs ignores memory, so its
        # broadcast result is (n, 1) -- which still costs n·b_M formula
        # evaluations, as the scalar loop counts them.
        query = QUERIES[2]
        columns = [c for c in _columns(query, flat_phase) if c[1] and c[2]]
        assert columns
        _assert_batch_is_the_scalar_loop(kind, query, columns)

    def test_one_pair_columns(self, kind, flat_phase):
        query = QUERIES[3]
        columns = [
            (phase, lps, rps, pairs[:1])
            for phase, lps, rps, pairs in _columns(query, flat_phase)
        ]
        _assert_batch_is_the_scalar_loop(kind, query, columns)

    def test_methods_missing_different_pairs(self, kind, flat_phase):
        # The first method is primed through the scalar join_step_cost
        # on every other pair, the others on none: the memo would have
        # each method miss different pairs, and the batch, which reads no
        # memo, still costs every pair under every method.
        query = QUERIES[3]
        columns = _columns(query, flat_phase)
        warm = [
            (METHODS[0], left, right, phase, lps, rps)
            for phase, lps, rps, pairs in columns
            for left, right in pairs[::2]
        ]
        _assert_batch_is_the_scalar_loop(kind, query, columns, warm=warm)


def test_flat_phase_groups_reach_the_array_path():
    # What makes the "flat" half of the matrix mean something: one
    # call's pairs outnumber PointCoster's small-group cut-off -- and
    # the "phased" half keeps columns under it (12 and 14 pairs against
    # a cut-off of 19), so the matrix reaches both paths.
    from repro.optimizer.costers import _MIN_VECTOR_STEPS

    flat, phased = _columns(QUERIES[0], True), _columns(QUERIES[0], False)
    assert min(len(pairs) for *_, pairs in flat) >= _MIN_VECTOR_STEPS
    assert min(len(pairs) for *_, pairs in phased) < _MIN_VECTOR_STEPS


@pytest.mark.parametrize("flags", FLAGS)
def test_point_list_and_array_calls_meet_at_the_threshold(monkeypatch, flags):
    # Below the cut-off a method's column is one list call, from it on one
    # array call; on both sides of it the scalar loop's floats, eval_count
    # and memo accounting.
    from repro.optimizer.costers import _MIN_VECTOR_STEPS

    pairs = _pairs(QUERIES[0])
    for size in (_MIN_VECTOR_STEPS - 1, _MIN_VECTOR_STEPS, _MIN_VECTOR_STEPS + 1):
        column = [(0, *flags, pairs[:size])]
        _assert_batch_is_the_scalar_loop("point", QUERIES[0], column)
        coster, calls = _bound("point", QUERIES[0]), []
        model = coster.cost_model
        for name in ("join_costs", "join_cost_many", "sort_merge_cost_ordered_many"):
            def counting(*args, _real=getattr(model, name), _name=name):
                calls.append(_name)
                return _real(*args)

            monkeypatch.setattr(model, name, counting)
        coster.prefetch_join_steps(*column[0])
        assert len(calls) == len(METHODS)
        if size < _MIN_VECTOR_STEPS:
            assert set(calls) == {"join_costs"}
        else:
            assert "join_costs" not in calls


@pytest.mark.parametrize("half_warm", [False, True], ids=["cold", "half-warm"])
def test_a_naive_multiparam_level_mixes_presorted_and_unsorted_sort_merge(
    monkeypatch, half_warm
):
    # Algorithm D costs an unsorted column through one naive
    # grid, built once, costed once per method -- over one pair too --
    # and the presorted columns of the same level through the
    # order-aware per-step route.  Steps the scalar path memoized
    # beforehand change nothing: the grid still covers every pair.
    from repro.core.expected_cost import NaiveGrid

    query = QUERIES[2]
    columns = [c for c in _columns(query, False) if c[0] == 1]
    assert [(lps, rps) for _, lps, rps, _ in columns] == FLAGS
    pairs = columns[0][3]
    calls = []
    real = NaiveGrid.costs

    def counting(grid, cost_model, method):
        calls.append((method, grid.shape[0], id(grid)))
        return real(grid, cost_model, method)

    monkeypatch.setattr(NaiveGrid, "costs", counting)
    # Every other pair's steps are memoized, under every method and flag.
    warmed = pairs[1::2] if half_warm else []
    warm = [s for s in _steps(METHODS, columns) if s[1:3] in warmed]
    _assert_batch_is_the_scalar_loop("multiparam-naive", query, columns, warm=warm)
    # One call per method on one grid over every pair, none for a
    # presorted column.
    assert [call[:2] for call in calls] == [(m, len(pairs)) for m in METHODS]
    assert len({call[2] for call in calls}) == 1

    calls.clear()
    _assert_batch_is_the_scalar_loop(
        "multiparam-naive", query, [(1, False, False, pairs[:1])]
    )
    assert [call[:2] for call in calls] == [(m, 1) for m in METHODS]


def test_an_empty_batch_is_an_empty_list():
    for kind in COSTER_KINDS + ["bayesnet"]:
        coster = _bound(kind, QUERIES[0])
        for flags in FLAGS:
            assert coster.prefetch_join_steps(0, *flags, []) == [[], [], []]


@corpus_ops("batch")
def test_end_to_end_golden_pins(op_id):
    assert_replays(op_id)


class TestAlgorithmDEndToEnd:
    def test_whole_plan_evaluator_fast_matches_naive(self):
        query = QUERIES[0]
        plan = optimize_algorithm_d(query, MEMORY).plan
        naive = plan_expected_cost_multiparam(plan, query, MEMORY, fast=False)
        fast = plan_expected_cost_multiparam(plan, query, MEMORY, fast=True)
        assert fast == pytest.approx(naive, rel=COST_REL_TOL)

    def test_whole_plan_evaluator_batching_is_deterministic(self):
        query = QUERIES[1]
        plan = optimize_algorithm_d(query, MEMORY).plan
        first = plan_expected_cost_multiparam(plan, query, MEMORY, fast=True)
        again = plan_expected_cost_multiparam(plan, query, MEMORY, fast=True)
        assert math.isclose(first, again, rel_tol=0.0, abs_tol=0.0)


class TestRandomizedSearchDeterminism:
    def test_seeded_search_with_batched_scorer_is_reproducible(self):
        # Seeding discipline: the only randomness is the caller's seeded
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

