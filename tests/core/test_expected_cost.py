"""Tests for the linear-time expected-cost algorithms (Section 3.6)."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.distributions import (
    DiscreteDistribution,
    point_mass,
    two_point,
    uniform_over,
)
from repro.core.expected_cost import (
    FAST_METHODS,
    _SurvivalTable,
    expected_external_sort_cost,
    expected_grace_hash_cost,
    expected_join_cost_fast,
    expected_join_cost_naive,
    expected_join_cost_naive_model,
    expected_join_costs_naive_model_many,
    expected_nested_loop_cost,
    expected_sort_merge_cost,
)
from repro.core.floats import COST_REL_TOL
from repro.costmodel import formulas
from repro.costmodel.model import CostModel
from repro.plans.properties import JoinMethod


def _raw_cost(method, l, r, m):
    return formulas.join_cost(method, l, r, m)


class TestSurvivalTable:
    def test_prob_gt_and_ge(self, small_memory_dist):
        st_ = _SurvivalTable(small_memory_dist)
        xs = np.array([300.0, 5000.0, 0.0])
        assert st_.prob_gt_many(xs) == pytest.approx([0.8, 0.0, 1.0])
        assert st_.prob_ge_many(xs[:2]) == pytest.approx([1.0, 0.2])

    def test_between_support_points(self, small_memory_dist):
        st_ = _SurvivalTable(small_memory_dist)
        assert st_.prob_gt_many(np.array([1000.0])) == pytest.approx([0.5])
        assert st_.prob_ge_many(np.array([1000.0])) == pytest.approx([0.5])


class TestPointMassDegeneration:
    """With point masses everywhere, E[Φ] must equal Φ itself."""

    @pytest.mark.parametrize("method", sorted(FAST_METHODS, key=lambda m: m.value))
    def test_all_point_masses(self, method):
        l, r, m = point_mass(5000.0), point_mass(800.0), point_mass(90.0)
        fast = expected_join_cost_fast(method, l, r, m)
        assert fast == pytest.approx(_raw_cost(method, 5000.0, 800.0, 90.0))

    def test_memory_only_uncertain_sm(self, bimodal_memory):
        l, r = point_mass(1_000_000.0), point_mass(400_000.0)
        fast = expected_sort_merge_cost(l, r, bimodal_memory)
        expected = 0.8 * 2_800_000 + 0.2 * 5_600_000
        assert fast == pytest.approx(expected)


class TestNaiveVsFastHandPicked:
    def test_sort_merge_spanning_breakpoints(self):
        left = uniform_over([100.0, 10_000.0, 1_000_000.0])
        right = two_point(400_000.0, 0.5, 900.0)
        memory = uniform_over([50.0, 700.0, 1500.0])
        naive = expected_join_cost_naive(
            _raw_cost, JoinMethod.SORT_MERGE, left, right, memory
        )
        fast = expected_sort_merge_cost(left, right, memory)
        assert fast == pytest.approx(naive, rel=1e-12)

    def test_nested_loop_spanning_breakpoints(self):
        left = uniform_over([10.0, 100.0, 5000.0])
        right = uniform_over([50.0, 2000.0])
        memory = uniform_over([12.0, 102.0, 5002.0])
        naive = expected_join_cost_naive(
            _raw_cost, JoinMethod.NESTED_LOOP, left, right, memory
        )
        fast = expected_nested_loop_cost(left, right, memory)
        assert fast == pytest.approx(naive, rel=1e-12)

    def test_grace_hash_spanning_breakpoints(self):
        left = uniform_over([10.0, 400.0, 90_000.0])
        right = uniform_over([30.0, 10_000.0])
        memory = uniform_over([5.0, 25.0, 450.0])
        naive = expected_join_cost_naive(
            _raw_cost, JoinMethod.GRACE_HASH, left, right, memory
        )
        fast = expected_grace_hash_cost(left, right, memory)
        assert fast == pytest.approx(naive, rel=1e-12)

    def test_tied_sizes_counted_once(self):
        # Left and right share a support value; pairs (v, v) must not be
        # double counted across the two halves.
        shared = uniform_over([100.0, 500.0])
        memory = uniform_over([10.0, 40.0])
        for method in sorted(FAST_METHODS, key=lambda m: m.value):
            naive = expected_join_cost_naive(
                _raw_cost, method, shared, shared, memory
            )
            fast = expected_join_cost_fast(method, shared, shared, memory)
            assert fast == pytest.approx(naive, rel=1e-12), method

    def test_survival_table_reuse_gives_same_answer(self, small_memory_dist):
        left = uniform_over([100.0, 90_000.0])
        right = uniform_over([5_000.0, 200_000.0])
        table = _SurvivalTable(small_memory_dist)
        with_table = expected_sort_merge_cost(
            left, right, small_memory_dist, survival=table
        )
        without = expected_sort_merge_cost(left, right, small_memory_dist)
        assert with_table == pytest.approx(without)


class TestDispatch:
    def test_fast_dispatch_rejects_unsupported(self):
        with pytest.raises(ValueError):
            expected_join_cost_fast(
                JoinMethod.BLOCK_NESTED_LOOP,
                point_mass(10.0),
                point_mass(10.0),
                point_mass(10.0),
            )

    def test_naive_counts_every_triple(self):
        calls = []

        def counting(method, l, r, m):
            calls.append((l, r, m))
            return 1.0

        left = uniform_over([1.0, 2.0, 3.0])
        right = uniform_over([1.0, 2.0])
        memory = uniform_over([4.0, 5.0, 6.0, 7.0])
        expected_join_cost_naive(counting, JoinMethod.SORT_MERGE, left, right, memory)
        assert len(calls) == 3 * 2 * 4


class TestExpectedSort:
    def test_matches_double_loop(self, bimodal_memory):
        pages = uniform_over([500.0, 3000.0, 50_000.0])
        got = expected_external_sort_cost(
            pages, bimodal_memory, formulas.external_sort_cost
        )
        want = sum(
            pp * pm * formulas.external_sort_cost(p, m)
            for p, pp in pages.items()
            for m, pm in bimodal_memory.items()
        )
        assert got == pytest.approx(want)


# ----------------------------------------------------------------------
# Property-based: fast == naive on random bucketings
# ----------------------------------------------------------------------


def _dist(seed: int, n: int, lo: float, hi: float) -> DiscreteDistribution:
    rng = np.random.default_rng(seed)
    vals = np.sort(rng.uniform(lo, hi, size=n))
    return DiscreteDistribution(vals, rng.dirichlet(np.ones(n)))


@st.composite
def join_inputs(draw):
    seed = draw(st.integers(0, 2**31))
    bl = draw(st.integers(1, 10))
    br = draw(st.integers(1, 10))
    bm = draw(st.integers(1, 10))
    rng = np.random.default_rng(seed)
    left = _dist(int(rng.integers(1e9)), bl, 1.0, 1e6)
    right = _dist(int(rng.integers(1e9)), br, 1.0, 1e6)
    # Memory straddling the sqrt breakpoints of those sizes.
    memory = _dist(int(rng.integers(1e9)), bm, 3.0, 2e3)
    return left, right, memory


class TestFastEqualsNaiveProperty:
    @pytest.mark.parametrize("method", sorted(FAST_METHODS, key=lambda m: m.value))
    @given(inputs=join_inputs())
    @settings(max_examples=50, deadline=None)
    def test_agreement(self, method, inputs):
        left, right, memory = inputs
        naive = expected_join_cost_naive(_raw_cost, method, left, right, memory)
        fast = expected_join_cost_fast(method, left, right, memory)
        assert fast == pytest.approx(naive, rel=COST_REL_TOL)

    @given(inputs=join_inputs())
    @settings(max_examples=30, deadline=None)
    def test_expected_cost_within_support_bounds(self, inputs):
        left, right, memory = inputs
        for method in sorted(FAST_METHODS, key=lambda m: m.value):
            vals = [
                _raw_cost(method, l, r, m)
                for l in left.support()
                for r in right.support()
                for m in memory.support()
            ]
            e = expected_join_cost_fast(method, left, right, memory)
            slack = 1e-9 * max(abs(max(vals)), 1.0)
            assert min(vals) - slack <= e <= max(vals) + slack


# ----------------------------------------------------------------------
# The batched naive grid == the per-pair naive grid, exactly
# ----------------------------------------------------------------------


def _all_methods_model() -> CostModel:
    return CostModel(methods=tuple(JoinMethod))


@st.composite
def ragged_batches(draw):
    """``(pairs, memory)``: supports of 1-16 buckets drawn from a pool of
    six, so one distribution object sits on both sides and in several
    pairs."""
    rng = np.random.default_rng(draw(st.integers(0, 2**31)))
    pool = [
        _dist(int(rng.integers(1e9)), int(rng.integers(1, 17)), 1.0, 1e6)
        for _ in range(6)
    ]
    memory = _dist(int(rng.integers(1e9)), int(rng.integers(1, 6)), 3.0, 2e3)
    picks = draw(
        st.lists(st.tuples(st.integers(0, 5), st.integers(0, 5)), max_size=12)
    )
    return [(pool[i], pool[j]) for i, j in picks], memory


class TestBatchedNaiveEqualsPerPair:
    @pytest.mark.parametrize(
        "make_model", [CostModel, _all_methods_model], ids=["default", "all-methods"]
    )
    @given(batch=ragged_batches())
    @settings(max_examples=60, deadline=None)
    def test_same_floats_same_eval_count(self, make_model, batch):
        pairs, memory = batch
        batched, per_pair = make_model(), make_model()
        for method in batched.methods:
            got = expected_join_costs_naive_model_many(batched, method, pairs, memory)
            want = [
                expected_join_cost_naive_model(per_pair, method, left, right, memory)
                for left, right in pairs
            ]
            assert got == want  # float equality: bit for bit
            assert all(type(cost) is float for cost in got)
            assert batched.eval_count == per_pair.eval_count

    def test_all_methods_model_adds_the_two_optional_methods(self):
        extra = set(_all_methods_model().methods) - set(CostModel().methods)
        assert {JoinMethod.BLOCK_NESTED_LOOP, JoinMethod.HYBRID_HASH} <= extra

    def test_empty_batch_evaluates_nothing(self, small_memory_dist):
        model = CostModel()
        for method in model.methods:
            assert expected_join_costs_naive_model_many(
                model, method, [], small_memory_dist
            ) == []
        assert model.eval_count == 0

    def test_single_pair_and_one_object_everywhere(self, small_memory_dist):
        d = _dist(5, 16, 1.0, 1e6)
        point = point_mass(40.0)
        for pairs in ([(d, d)], [(d, d)] * 3 + [(point, d), (d, point), (point, point)]):
            batched, per_pair = CostModel(), CostModel()
            for method in batched.methods:
                assert expected_join_costs_naive_model_many(
                    batched, method, pairs, small_memory_dist
                ) == [
                    expected_join_cost_naive_model(
                        per_pair, method, left, right, small_memory_dist
                    )
                    for left, right in pairs
                ]
            assert batched.eval_count == per_pair.eval_count
