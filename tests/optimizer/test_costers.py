"""Tests for the coster implementations."""

from __future__ import annotations

import itertools

import pytest

from repro.core.distributions import point_mass, uniform_over
from repro.core.floats import COST_REL_TOL
from repro.core.markov import MarkovParameter, sticky_chain
from repro.costmodel.expected_cost import expected_join_cost_fast
from repro.costmodel import formulas
from repro.costmodel.model import CostModel
from repro.optimizer.costers import (
    ExpectedCoster,
    MarkovCoster,
    MultiParamCoster,
    PointCoster,
)
from repro.plans.nodes import Scan
from repro.plans.properties import JoinMethod
from repro.workloads.queries import with_selectivity_uncertainty


class TestPointCoster:
    def test_join_step_is_formula(self, example_query):
        c = PointCoster(2000.0)
        c.bind(example_query)
        got = c.join_step_cost(
            JoinMethod.SORT_MERGE, frozenset(["A"]), frozenset(["B"]), 0
        )
        assert got == formulas.sort_merge_cost(1_000_000, 400_000, 2000)

    def test_write_cost_is_pages(self, example_query):
        c = PointCoster(2000.0)
        c.bind(example_query)
        assert c.write_cost(frozenset(["A", "B"])) == 3000.0

    def test_sort_cost(self, example_query):
        c = PointCoster(2000.0)
        c.bind(example_query)
        assert c.final_sort_cost(frozenset(["A", "B"]), 0) == (
            formulas.external_sort_cost(3000.0, 2000.0)
        )

    def test_access_cost_unfiltered_is_zero(self, example_query):
        c = PointCoster(2000.0)
        c.bind(example_query)
        assert c.access_cost(Scan("A")) == 0.0

    def test_rejects_nonpositive_memory(self):
        with pytest.raises(ValueError):
            PointCoster(0.0)


class TestExpectedCoster:
    def test_point_mass_degenerates_to_point_coster(self, example_query):
        pc = PointCoster(700.0)
        ec = ExpectedCoster(point_mass(700.0))
        pc.bind(example_query)
        ec.bind(example_query)
        args = (JoinMethod.GRACE_HASH, frozenset(["A"]), frozenset(["B"]), 0)
        assert ec.join_step_cost(*args) == pytest.approx(pc.join_step_cost(*args))

    def test_expectation_mixes_buckets(self, example_query, bimodal_memory):
        ec = ExpectedCoster(bimodal_memory)
        ec.bind(example_query)
        got = ec.join_step_cost(
            JoinMethod.SORT_MERGE, frozenset(["A"]), frozenset(["B"]), 0
        )
        want = 0.8 * 2_800_000 + 0.2 * 5_600_000
        assert got == pytest.approx(want)

    def test_phase_ignored_for_static(self, example_query, bimodal_memory):
        ec = ExpectedCoster(bimodal_memory)
        ec.bind(example_query)
        a = ec.join_step_cost(
            JoinMethod.SORT_MERGE, frozenset(["A"]), frozenset(["B"]), 0
        )
        b = ec.join_step_cost(
            JoinMethod.SORT_MERGE, frozenset(["A"]), frozenset(["B"]), 7
        )
        assert a == b


class TestMarkovCoster:
    def test_uses_phase_marginal(self, example_query):
        # Phase 0: all mass at 2000 (2 passes); phase 1: all at 700 (4).
        chain = MarkovParameter(
            [700.0, 2000.0], [0.0, 1.0], [[1.0, 0.0], [1.0, 0.0]]
        )
        mc = MarkovCoster(chain)
        mc.bind(example_query)
        args = (JoinMethod.SORT_MERGE, frozenset(["A"]), frozenset(["B"]))
        assert mc.join_step_cost(*args, 0) == 2_800_000.0
        assert mc.join_step_cost(*args, 1) == 5_600_000.0

    def test_no_bushy_support(self, bimodal_memory):
        mc = MarkovCoster(sticky_chain(bimodal_memory, 0.5))
        assert mc.requires_ordered_phases


class TestMultiParamCoster:
    def test_size_distribution_cached(self, three_way_query, bimodal_memory):
        mpc = MultiParamCoster(bimodal_memory)
        mpc.bind(three_way_query)
        a = mpc.size_distribution(frozenset(["R", "S"]))
        b = mpc.size_distribution(frozenset(["R", "S"]))
        assert a is b

    def test_cache_cleared_on_rebind(self, three_way_query, bimodal_memory):
        mpc = MultiParamCoster(bimodal_memory)
        mpc.bind(three_way_query)
        a = mpc.size_distribution(frozenset(["R", "S"]))
        mpc.bind(three_way_query)
        b = mpc.size_distribution(frozenset(["R", "S"]))
        assert a is not b
        assert a == b

    def test_point_sizes_match_expected_coster(self, three_way_query, bimodal_memory):
        # With no size/selectivity uncertainty, MultiParam == Expected.
        ec = ExpectedCoster(bimodal_memory)
        mpc = MultiParamCoster(bimodal_memory)
        ec.bind(three_way_query)
        mpc.bind(three_way_query)
        for method in (JoinMethod.SORT_MERGE, JoinMethod.GRACE_HASH):
            args = (method, frozenset(["R", "S"]), frozenset(["T"]), 0)
            assert mpc.join_step_cost(*args) == pytest.approx(
                ec.join_step_cost(*args)
            )
        assert mpc.write_cost(frozenset(["R", "S"])) == pytest.approx(
            ec.write_cost(frozenset(["R", "S"]))
        )
        assert mpc.final_sort_cost(frozenset(["R", "S"]), 0) == pytest.approx(
            ec.final_sort_cost(frozenset(["R", "S"]), 0)
        )

    def test_fast_equals_naive_paths(self, three_way_query, bimodal_memory):
        # The coster's naive grid is C7's linear-time kernel on its sizes.
        q = with_selectivity_uncertainty(three_way_query, 1.0)
        naive = MultiParamCoster(bimodal_memory, max_buckets=10)
        naive.bind(q)
        left, right = frozenset(["R", "S"]), frozenset(["T"])
        sizes = naive.size_distribution(left), naive.size_distribution(right)
        for method in (
            JoinMethod.SORT_MERGE,
            JoinMethod.NESTED_LOOP,
            JoinMethod.GRACE_HASH,
        ):
            assert expected_join_cost_fast(method, *sizes, bimodal_memory) == pytest.approx(
                naive.join_step_cost(method, left, right, 0), rel=COST_REL_TOL
            )

    def test_naive_eval_count_is_triple_product(self, three_way_query):
        memory = uniform_over([100.0, 200.0, 300.0])
        cm = CostModel()
        mpc = MultiParamCoster(memory, cost_model=cm, max_buckets=10)
        q = with_selectivity_uncertainty(three_way_query, 1.0, n_buckets=5)
        mpc.bind(q)
        before = cm.eval_count
        mpc.join_step_cost(
            JoinMethod.SORT_MERGE, frozenset(["R", "S"]), frozenset(["T"]), 0
        )
        b_left = mpc.size_distribution(frozenset(["R", "S"])).n_buckets
        b_right = mpc.size_distribution(frozenset(["T"])).n_buckets
        assert cm.eval_count - before == 3 * b_left * b_right


class TestStepMemo:
    """A column is costed directly: it neither reads nor writes the step
    memo, for every coster kind; ``join`` / ``write`` / ``sort`` keys of
    the scalar path memoise there."""

    PAIRS = [
        (frozenset(["R"]), frozenset(["S"])),
        (frozenset(["R", "S"]), frozenset(["T"])),
        (frozenset(["T"]), frozenset(["R", "S"])),
    ]

    def _costers(self, memory):
        return [
            PointCoster(1200.0),
            ExpectedCoster(memory),
            MarkovCoster(sticky_chain(memory, 0.8)),
            MultiParamCoster(memory),
        ]

    def test_prefetch_neither_reads_nor_writes_it(self, three_way_query, bimodal_memory):
        for coster, flags in itertools.product(
            self._costers(bimodal_memory), [(False, False), (True, False)]
        ):
            coster.bind(three_way_query)
            methods = coster.methods

            def memo():
                return coster.context.stats()["step_costs"]

            def scalar(pairs):
                return [
                    [coster.join_step_cost(m, l, r, 1, *flags) for l, r in pairs]
                    for m in methods
                ]

            evals = coster.cost_model.eval_count
            batch = coster.prefetch_join_steps(1, *flags, self.PAIRS)
            cold = coster.cost_model.eval_count - evals
            assert memo()["hits"] == memo()["misses"] == 0
            # The scalar path stores its own, and costs them as the batch did ...
            evals = coster.cost_model.eval_count
            assert scalar(self.PAIRS) == batch
            assert memo()["misses"] == 3 * len(methods) and memo()["hits"] == 0
            assert coster.cost_model.eval_count - evals == cold
            # ... which a second batch does not read: it costs them again.
            evals = coster.cost_model.eval_count
            assert coster.prefetch_join_steps(1, *flags, self.PAIRS) == batch
            assert coster.cost_model.eval_count - evals == cold
            assert memo()["hits"] == 0

    def test_write_and_sort_keys_still_memoise(self, three_way_query, bimodal_memory):
        rels = frozenset(["R", "S"])
        for coster in self._costers(bimodal_memory):
            coster.bind(three_way_query)
            write, sort = coster.write_cost(rels), coster.final_sort_cost(rels, 0)
            before = coster.context.stats()["step_costs"]["misses"]
            evals = coster.cost_model.eval_count
            assert coster.write_cost(rels) == write
            assert coster.final_sort_cost(rels, 0) == sort
            assert coster.context.stats()["step_costs"]["misses"] == before
            assert coster.cost_model.eval_count == evals
            coster.context.clear()
            assert coster.final_sort_cost(rels, 0) == sort
            assert coster.cost_model.eval_count > evals
