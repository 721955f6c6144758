"""Parallel level evaluation must be invisible in every observable output.

``SystemRDP(pool=...)`` fans each DP level's prefetched batch across a
caller-owned worker pool.  The contract mirrors (and composes with) the
level-batching one: *bit-identical* winning plans, objectives to the
last ulp, and identical ``formula_evaluations`` accounting, for every
pool size and backend — workers run pure row-independent kernels over
deterministic contiguous chunks and the coordinator merges results in
fixed chunk order, so no schedule can reorder a single float operation.

The matrix here is the acceptance gate: all four plan spaces crossed
with pool sizes {1, 2, 4} (size 1 is the pool-less sequential path),
the thread and process backends, every coster including the dependent
Bayes-net one, and the seeded randomized search.  The engine evaluates
a level the same way with or without a pool, so the
``formula_evaluations`` comparison is one-for-one on every space;
``test_pool_is_used_on_a_pruned_space`` checks the pool sees the batch.
"""

from __future__ import annotations

import math

import numpy as np
import pytest

from repro.core.context import OptimizationContext
from repro.core.distributions import DiscreteDistribution
from repro.core.markov import MarkovParameter
from repro.core.parallel import ParallelismError, WorkerPool
from repro.core.bayesnet import DiscreteBayesNet
from repro.optimizer.costers import (
    ExpectedCoster,
    MarkovCoster,
    MultiParamCoster,
    PointCoster,
)
from repro.optimizer.dependent import BayesNetCoster
from repro.optimizer.randomized import iterative_improvement
from repro.optimizer.systemr import SystemRDP
from repro.core.algorithm_d import plan_expected_cost_multiparam
from repro.workloads.queries import (
    chain_query,
    random_query,
    star_query,
    union_query,
    with_selectivity_uncertainty,
    with_size_uncertainty,
)

MEMORY = DiscreteDistribution([2000.0, 300.0], [0.7, 0.3])

#: Pool sizes the acceptance criteria name.  1 is the sequential path
#: (no pool); 2 and 4 exercise real fan-out even on a single-core host.
POOL_SIZES = [1, 2, 4]


@pytest.fixture(scope="module")
def pools():
    """size -> pool (``None`` for 1), closed when the module is done."""
    live = {n: WorkerPool("threads", n) for n in POOL_SIZES if n > 1}
    yield {1: None, **live}
    for pool in live.values():
        pool.close()


JOIN_SPACES = ["left-deep", "zig-zag", "bushy"]


def _queries():
    rng = np.random.default_rng(23)
    plain = [
        chain_query(5, rng),
        random_query(5, rng, min_pages=200, max_pages=120000,
                     rows_per_page=100),
    ]
    return [
        with_selectivity_uncertainty(with_size_uncertainty(q, 0.8), 0.8)
        for q in plain
    ]


QUERIES = _queries()


def _union_query():
    rng = np.random.default_rng(29)
    q = union_query(2, 3, rng, distinct=True)
    return with_selectivity_uncertainty(with_size_uncertainty(q, 0.8), 0.8)


UNION = _union_query()


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
    raise AssertionError(kind)


def _run_engine(coster, query, space: str, pool):
    engine = SystemRDP(
        coster,
        plan_space=space,
        context=OptimizationContext(query),
        pool=pool,
    )
    return engine.optimize(query)


def _run(kind: str, query, space: str, pool):
    return _run_engine(_coster(kind), query, space, pool)


def _assert_identical(got, want):
    assert got.plan.signature() == want.plan.signature()
    assert math.isclose(
        got.objective, want.objective, rel_tol=0.0, abs_tol=0.0
    )
    assert (
        got.stats.formula_evaluations == want.stats.formula_evaluations
    )


class TestParallelLevelParity:
    @pytest.mark.parametrize("size", POOL_SIZES)
    @pytest.mark.parametrize("space", JOIN_SPACES)
    @pytest.mark.parametrize(
        "kind", ["point", "expected", "markov", "multiparam-fast"]
    )
    def test_join_spaces_bitwise_across_pool_sizes(
        self, kind, space, size, pools
    ):
        if kind == "markov" and space == "bushy":
            pytest.skip("bushy trees have no canonical phase order")
        query = QUERIES[0]
        seq = _run(kind, query, space, pool=None)
        par = _run(kind, query, space, pool=pools[size])
        _assert_identical(par, seq)

    @pytest.mark.parametrize("size", POOL_SIZES)
    def test_spju_space_bitwise_across_pool_sizes(self, size, pools):
        seq = _run("expected", UNION, "spju", pool=None)
        par = _run("expected", UNION, "spju", pool=pools[size])
        _assert_identical(par, seq)

    def test_process_backend_matches_threads(self):
        query = QUERIES[1]
        seq = _run("multiparam-fast", query, "bushy", pool=None)
        with WorkerPool("threads", 2) as threads:
            thr = _run("multiparam-fast", query, "bushy", pool=threads)
        with WorkerPool("processes", 2) as processes:
            prc = _run("multiparam-fast", query, "bushy", pool=processes)
        _assert_identical(thr, seq)
        _assert_identical(prc, seq)

    def test_caller_owned_pool_instance(self):
        query = QUERIES[0]
        seq = _run("expected", query, "bushy", pool=None)
        with WorkerPool("threads", 2) as pool:
            par = _run("expected", query, "bushy", pool=pool)
        _assert_identical(par, seq)

    def test_pool_size_one_is_the_sequential_path(self):
        # No one-worker pool exists to hand over: size 1 means pool=None.
        with pytest.raises(ParallelismError, match=">= 2 workers"):
            WorkerPool("threads", 1)

    def test_pool_is_used_on_a_pruned_space(self, pools, monkeypatch):
        # Nothing forced: on a pruned space too a pool must reach
        # map_ordered (every level is costed as a batch, which is what a
        # pool fans out) and leave every answer as the pool-less run
        # gives it.  Six relations: a level has to hold enough steps for
        # the costers to chunk it at all.
        query, pool = star_query(6, np.random.default_rng(23)), pools[2]
        calls = []
        real = pool.map_ordered

        def counting(fn, tasks):
            calls.append(len(tasks))
            return real(fn, tasks)

        monkeypatch.setattr(pool, "map_ordered", counting)

        def run(pool):
            return SystemRDP(
                ExpectedCoster(MEMORY),
                plan_space="bushy",
                top_k=3,
                context=OptimizationContext(query),
                pool=pool,
            ).optimize(query)

        seq, par = run(None), run(pool)
        assert calls, "the pool never saw a task"
        assert [c.plan.signature() for c in par.candidates] == [
            c.plan.signature() for c in seq.candidates
        ]
        assert [c.objective for c in par.candidates] == [
            c.objective for c in seq.candidates
        ]
        assert par.plan.signature() == seq.plan.signature()
        assert par.objective == seq.objective


class TestDependentCosterParity:
    def _net(self):
        net = DiscreteBayesNet()
        net.add_node("load", [0.0, 1.0], probs=[0.6, 0.4])
        net.add_node(
            "M", [2000.0, 500.0], parents=["load"],
            cpt={(0.0,): [0.9, 0.1], (1.0,): [0.2, 0.8]},
        )
        return net

    @pytest.mark.parametrize("size", POOL_SIZES)
    @pytest.mark.parametrize("space", JOIN_SPACES)
    def test_dependent_bitwise_across_pool_sizes(self, space, size, pools):
        query = QUERIES[0]
        net = self._net()
        seq = _run_engine(BayesNetCoster(net), query, space, pool=None)
        par = _run_engine(BayesNetCoster(net), query, space, pool=pools[size])
        _assert_identical(par, seq)


class TestRandomizedSearchParallelDeterminism:
    @pytest.mark.parametrize("size", POOL_SIZES)
    def test_seeded_search_identical_across_pool_sizes(self, size, pools):
        # Candidates are sampled from the seeded rng *before* any
        # evaluation and the pool scan accepts the first improvement in
        # sampling order, so the whole trajectory — plan, objective,
        # and the evaluation count — is schedule-independent.
        query = QUERIES[1]

        def run(pool):
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
                pool=pool,
            )
            return res.plan.signature(), res.objective, res.evaluations

        # The baseline reruns per pool size on purpose — a fresh
        # context per run keeps memo warm-up identical on both sides.
        base = run(None)
        par = run(pools[size])
        assert par[0] == base[0]
        assert math.isclose(par[1], base[1], rel_tol=0.0, abs_tol=0.0)
        assert par[2] == base[2]
