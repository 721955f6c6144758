"""Tests for TopKList and the Proposition 3.1 merge."""

from __future__ import annotations

import itertools
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.optimizer.result import OptimizerStats
from repro.optimizer.topk import TopKList, merge_top_combinations


class TestTopKList:
    def test_keeps_k_smallest(self):
        top = TopKList(3)
        for cost in [5.0, 1.0, 9.0, 3.0, 7.0]:
            top.offer(cost, f"item{cost}")
        assert [c for c, _ in top.items()] == [1.0, 3.0, 5.0]

    def test_offer_reports_acceptance(self):
        top = TopKList(2)
        assert top.offer(5.0, "a")
        assert top.offer(3.0, "b")
        assert not top.offer(9.0, "c")
        assert top.offer(1.0, "d")

    def test_ties_keep_insertion_order(self):
        top = TopKList(2)
        top.offer(1.0, "first")
        top.offer(1.0, "second")
        top.offer(1.0, "third")
        assert [it for _, it in top.items()] == ["first", "second"]

    def test_best_and_worst(self):
        top = TopKList(2)
        top.offer(4.0, "a")
        top.offer(2.0, "b")
        assert top.best() == (2.0, "b")
        assert top.costs[-1] == 4.0  # the worst held: the DP's admission bar

    def test_best_on_empty_raises(self):
        with pytest.raises(IndexError):
            TopKList(1).best()

    def test_k_validation(self):
        with pytest.raises(ValueError):
            TopKList(0)

    def test_len_and_bool(self):
        top = TopKList(5)
        assert not top
        top.offer(1.0, "x")
        assert top and len(top) == 1


class TestMergeTopCombinations:
    def test_singletons(self):
        res = merge_top_combinations([3.0], [4.0], 1)
        assert res.combinations == [(7.0, 0, 0)]
        assert res.probes == 1

    def test_matches_bruteforce_small(self):
        left = [1.0, 2.0, 10.0]
        right = [0.5, 5.0, 6.0]
        res = merge_top_combinations(left, right, 3)
        brute = sorted(l + r for l, r in itertools.product(left, right))[:3]
        assert [c for c, _, _ in res.combinations] == pytest.approx(brute)

    def test_indices_are_valid(self):
        left = [1.0, 4.0]
        right = [2.0, 3.0]
        res = merge_top_combinations(left, right, 4)
        for cost, i, k in res.combinations:
            assert cost == left[i] + right[k]

    def test_probe_bound(self):
        rng = np.random.default_rng(3)
        for c in (1, 2, 5, 16, 40):
            left = sorted(rng.uniform(0, 100, c))
            right = sorted(rng.uniform(0, 100, c))
            res = merge_top_combinations(left, right, c)
            bound = c + c * math.log(c) if c > 1 else 1
            assert res.probes <= bound + 1e-9

    def test_asymmetric_list_lengths(self):
        res = merge_top_combinations([1.0], [1.0, 2.0, 3.0], 3)
        assert [c for c, _, _ in res.combinations] == [2.0, 3.0, 4.0]

    def test_rejects_unsorted(self):
        with pytest.raises(ValueError):
            merge_top_combinations([2.0, 1.0], [1.0], 1)
        with pytest.raises(ValueError):
            merge_top_combinations([1.0], [2.0, 1.0], 1)

    def test_rejects_bad_c(self):
        with pytest.raises(ValueError):
            merge_top_combinations([1.0], [1.0], 0)

    @given(
        left=st.lists(st.floats(0, 1e6), min_size=1, max_size=12),
        right=st.lists(st.floats(0, 1e6), min_size=1, max_size=12),
        c=st.integers(1, 12),
    )
    @settings(max_examples=100, deadline=None)
    def test_property_equals_bruteforce(self, left, right, c):
        left, right = sorted(left), sorted(right)
        res = merge_top_combinations(left, right, c)
        brute = sorted(l + r for l, r in itertools.product(left, right))[:c]
        assert [x for x, _, _ in res.combinations] == pytest.approx(brute)

    @given(c=st.integers(2, 64), seed=st.integers(0, 2**31))
    @settings(max_examples=60, deadline=None)
    def test_property_probe_bound(self, c, seed):
        rng = np.random.default_rng(seed)
        left = sorted(rng.uniform(0, 1, c))
        right = sorted(rng.uniform(0, 1, c))
        res = merge_top_combinations(left, right, c)
        assert res.probes <= c + c * math.log(c) + 1e-9
        assert res.probes <= c * c


class TestInPlaceAdmission:
    """The reference engine's ``_offer_split`` (:mod:`.reference_dp`, which
    ``SystemRDP._level`` is held to) seats a candidate in its bucket's
    cost and entry lists itself, without :meth:`TopKList.offer`; the
    lists it leaves must be the ones ``offer`` leaves, ties settled by
    arrival."""

    @staticmethod
    def _engine(k: int):
        from repro.optimizer.costers import PointCoster
        from repro.plans.properties import JoinMethod

        from .reference_dp import PerSplitDP

        engine = PerSplitDP(PointCoster(1000.0), top_k=k)
        engine._writes = {1: 0.0, 2: 0.0}
        engine._methods = [(JoinMethod.GRACE_HASH, False)]
        return engine

    @given(
        stream=st.lists(
            st.lists(st.sampled_from([0.0, 1.0, 1.5, 2.0, 3.0, 7.25]), min_size=1, max_size=4),
            max_size=30,
        ),
        k=st.integers(1, 4),
    )
    @settings(max_examples=300, deadline=None)
    def test_equals_offer(self, stream, k):
        # Each split's left input holds its costs ascending, the right one
        # a single 0.0 and the step costs 0.0: its candidates' totals are
        # exactly the left costs, arriving in Proposition 3.1 probe order,
        # each tagged by the left entry it joins.
        engine, buckets, reference = self._engine(k), {}, TopKList(k)
        split = (1, 2, "p", None, (None,))
        for s, costs in enumerate(stream):
            costs = sorted(costs)
            tags = [f"{s}.{i}" for i in range(len(costs))]
            steps = {(1, 2): [[(False, costs, tags), (False, [0.0], ["r"]), (0.0,)]]}
            engine._offer_split(split, {}, steps, buckets, OptimizerStats())
            for total, i, _ in merge_top_combinations(costs, [0.0], k).combinations:
                reference.offer(total, tags[i])
        if not stream:
            assert buckets == {}
            return
        held = buckets[None]
        assert held.costs == reference.costs
        assert [entry.cost for entry in held.entries] == reference.costs
        assert [entry.source[1] for entry in held.entries] == reference.entries
