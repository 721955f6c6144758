"""Tests for the join/sort/scan cost formulas and their breakpoints."""

from __future__ import annotations

import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.costmodel import formulas
from repro.plans.properties import AccessPath, JoinMethod


# ----------------------------------------------------------------------
# Paper formulas, exact regions
# ----------------------------------------------------------------------


class TestSortMerge:
    A, B = 1_000_000.0, 400_000.0  # Example 1.1 sizes

    def test_two_pass_region(self):
        # M > sqrt(1,000,000) = 1000 -> 2 passes
        assert formulas.sort_merge_cost(self.A, self.B, 1001) == 2 * 1_400_000

    def test_four_pass_region(self):
        # sqrt(400,000) ~ 632.5 < M <= 1000 -> 4 passes
        assert formulas.sort_merge_cost(self.A, self.B, 700) == 4 * 1_400_000
        assert formulas.sort_merge_cost(self.A, self.B, 1000) == 4 * 1_400_000

    def test_six_pass_region(self):
        assert formulas.sort_merge_cost(self.A, self.B, 600) == 6 * 1_400_000

    def test_symmetric_in_inputs(self):
        for m in (500, 800, 2000):
            assert formulas.sort_merge_cost(self.A, self.B, m) == (
                formulas.sort_merge_cost(self.B, self.A, m)
            )

    def test_breakpoints_are_sqrts(self):
        bps = formulas.sort_merge_breakpoints(self.A, self.B)
        assert bps == sorted([math.sqrt(400_000), math.sqrt(1_000_000)])

    def test_example_1_1_narrative(self):
        # The paper's motivating numbers: at 2000 pages, 2 passes; at 700,
        # an extra pass level (4x).
        assert formulas.sort_merge_cost(self.A, self.B, 2000) == 2_800_000
        assert formulas.sort_merge_cost(self.A, self.B, 700) == 5_600_000


class TestGraceHash:
    A, B = 1_000_000.0, 400_000.0

    def test_two_pass_region(self):
        # M >= sqrt(400,000) ~ 632.5 -> two passes
        assert formulas.grace_hash_cost(self.A, self.B, 633) == 2 * 1_400_000
        assert formulas.grace_hash_cost(self.A, self.B, 2000) == 2 * 1_400_000

    def test_recursive_region(self):
        assert formulas.grace_hash_cost(self.A, self.B, 600) == 4 * 1_400_000

    def test_in_memory_region(self):
        small = 100.0
        assert formulas.grace_hash_cost(small, 500.0, 102) == 600.0

    def test_breakpoints(self):
        bps = formulas.grace_hash_breakpoints(self.A, self.B)
        assert math.sqrt(400_000) in bps
        assert 400_002.0 in bps

    def test_symmetric(self):
        assert formulas.grace_hash_cost(10.0, 1000.0, 50) == (
            formulas.grace_hash_cost(1000.0, 10.0, 50)
        )


class TestNestedLoop:
    def test_fits_in_memory(self):
        assert formulas.nested_loop_cost(100.0, 50.0, 52) == 150.0

    def test_does_not_fit(self):
        # |A| + |A|*|B|, the paper's Section 3.6.2 form.
        assert formulas.nested_loop_cost(100.0, 50.0, 51) == 100 + 100 * 50

    def test_asymmetric_when_not_fitting(self):
        a = formulas.nested_loop_cost(100.0, 50.0, 10)
        b = formulas.nested_loop_cost(50.0, 100.0, 10)
        assert a != b

    def test_breakpoint(self):
        assert formulas.nested_loop_breakpoints(100.0, 50.0) == [52.0]


class TestBlockNestedLoop:
    def test_fits_in_one_block(self):
        assert formulas.block_nested_loop_cost(10.0, 100.0, 12) == 110.0

    def test_two_blocks(self):
        # block = M-2 = 5, outer 10 -> 2 blocks
        assert formulas.block_nested_loop_cost(10.0, 100.0, 7) == 10 + 2 * 100

    def test_monotone_in_memory(self):
        costs = [
            formulas.block_nested_loop_cost(1000.0, 500.0, m)
            for m in range(4, 200, 7)
        ]
        assert all(a >= b for a, b in zip(costs, costs[1:]))

    def test_breakpoints_nonempty(self):
        bps = formulas.block_nested_loop_breakpoints(1000.0, 500.0)
        assert bps
        assert all(b > formulas.MIN_MEMORY_PAGES for b in bps)


class TestHybridHash:
    def test_in_memory_equals_single_pass(self):
        assert formulas.hybrid_hash_cost(100.0, 400.0, 102) == 500.0

    def test_matches_grace_when_memory_tiny(self):
        assert formulas.hybrid_hash_cost(10000.0, 40000.0, 50) == (
            formulas.grace_hash_cost(10000.0, 40000.0, 50)
        )

    def test_between_grace_and_single_pass_in_middle(self):
        a, b, m = 10000.0, 40000.0, 3000.0
        hh = formulas.hybrid_hash_cost(a, b, m)
        assert (a + b) < hh < formulas.grace_hash_cost(a, b, m)

    def test_smooth_decrease_with_memory(self):
        costs = [
            formulas.hybrid_hash_cost(10000.0, 40000.0, m)
            for m in range(200, 10000, 500)
        ]
        assert all(x >= y - 1e-9 for x, y in zip(costs, costs[1:]))


class TestSort:
    def test_in_memory_sort_is_single_read(self):
        assert formulas.external_sort_cost(100.0, 200) == 100.0

    def test_one_merge_pass(self):
        # 3000 pages, 2000 memory: 2 runs, fan-in large -> 1 merge pass.
        assert formulas.external_sort_cost(3000.0, 2000) == 2 * 3000 * 2

    def test_zero_pages(self):
        assert formulas.external_sort_cost(0.0, 100) == 0.0

    def test_more_memory_never_costs_more(self):
        costs = [
            formulas.external_sort_cost(50000.0, m) for m in (5, 10, 50, 500, 60000)
        ]
        assert all(a >= b for a, b in zip(costs, costs[1:]))

    def test_breakpoints_include_fit_edge(self):
        bps = formulas.sort_breakpoints(5000.0)
        assert 5000.0 in bps

    @pytest.mark.parametrize("pages", [4.0, 123.4, 5000.0, 1e6])
    def test_the_cost_drops_at_each_breakpoint_and_only_there(self, pages):
        cost = formulas.external_sort_cost
        cuts = [formulas.MIN_MEMORY_PAGES, *formulas.sort_breakpoints(pages)]
        assert cost(pages, cuts[-1]) == pages
        for lo, hi in zip(cuts, cuts[1:]):
            below = math.nextafter(hi, -math.inf)
            assert cost(pages, lo) == cost(pages, (lo + hi) / 2) == cost(pages, below)
            assert cost(pages, below) > cost(pages, hi)


class TestScan:
    def test_unfiltered_full_scan_free(self):
        # The consuming join charges for reading inputs.
        assert formulas.scan_cost(AccessPath.FULL_SCAN, 100.0) == 0.0

    def test_filtered_full_scan_reads_and_writes(self):
        cost = formulas.scan_cost(AccessPath.FULL_SCAN, 100.0, selectivity=0.1)
        assert cost == 100.0 + 10.0

    def test_clustered_index_scan(self):
        cost = formulas.scan_cost(
            AccessPath.INDEX_SCAN,
            1000.0,
            selectivity=0.01,
            rows=100_000.0,
            index_height=3,
            clustered=True,
        )
        assert cost == 3 + 10.0 + 10.0

    def test_unclustered_index_capped_at_relation_size(self):
        cost = formulas.scan_cost(
            AccessPath.INDEX_SCAN,
            100.0,
            selectivity=0.9,
            rows=10_000.0,
            clustered=False,
        )
        # matching rows (9000) exceed pages (100): capped.
        assert cost == 2 + 100.0 + 90.0

    def test_invalid_selectivity(self):
        with pytest.raises(ValueError):
            formulas.scan_cost(AccessPath.FULL_SCAN, 10.0, selectivity=1.5)


class TestValidation:
    @pytest.mark.parametrize(
        "fn",
        [
            formulas.nested_loop_cost,
            formulas.sort_merge_cost,
            formulas.grace_hash_cost,
            formulas.block_nested_loop_cost,
            formulas.hybrid_hash_cost,
        ],
    )
    def test_rejects_negative_sizes(self, fn):
        with pytest.raises(ValueError):
            fn(-1.0, 10.0, 100.0)

    @pytest.mark.parametrize(
        "fn",
        [
            formulas.nested_loop_cost,
            formulas.sort_merge_cost,
            formulas.grace_hash_cost,
        ],
    )
    def test_rejects_non_positive_memory(self, fn):
        with pytest.raises(ValueError):
            fn(10.0, 10.0, 0.0)

    def test_tiny_memory_clamped_not_crashed(self):
        # Below MIN_MEMORY_PAGES behaves as the minimum.
        assert formulas.sort_merge_cost(100.0, 100.0, 1.0) == (
            formulas.sort_merge_cost(100.0, 100.0, formulas.MIN_MEMORY_PAGES)
        )


# ----------------------------------------------------------------------
# Property-based invariants
# ----------------------------------------------------------------------

sizes = st.floats(min_value=1.0, max_value=1e7)
memories = st.floats(min_value=4.0, max_value=1e6)


class TestFormulaProperties:
    @pytest.mark.parametrize("method", list(JoinMethod))
    @given(a=sizes, b=sizes, m=memories)
    @settings(max_examples=40, deadline=None)
    def test_cost_positive_and_finite(self, method, a, b, m):
        c = formulas.join_cost(method, a, b, m)
        assert c > 0
        assert math.isfinite(c)

    @pytest.mark.parametrize(
        "method",
        [JoinMethod.SORT_MERGE, JoinMethod.GRACE_HASH, JoinMethod.NESTED_LOOP,
         JoinMethod.BLOCK_NESTED_LOOP, JoinMethod.HYBRID_HASH],
    )
    @given(a=sizes, b=sizes, m1=memories, m2=memories)
    @settings(max_examples=40, deadline=None)
    def test_cost_monotone_nonincreasing_in_memory(self, method, a, b, m1, m2):
        lo, hi = sorted((m1, m2))
        assert formulas.join_cost(method, a, b, hi) <= formulas.join_cost(
            method, a, b, lo
        ) + 1e-9

    @pytest.mark.parametrize("method", list(JoinMethod))
    @given(a=sizes, b=sizes)
    @settings(max_examples=40, deadline=None)
    def test_cost_constant_between_breakpoints(self, method, a, b):
        # The level-set claim: between consecutive breakpoints the cost
        # is constant (hybrid hash's middle region is excluded: smooth).
        if method is JoinMethod.HYBRID_HASH:
            return
        bps = formulas.join_breakpoints(method, a, b)
        if method is JoinMethod.BLOCK_NESTED_LOOP:
            # Breakpoint list is capped for BNL; only check above the cap.
            bps = bps[-3:] if len(bps) > 3 else bps
        edges = [formulas.MIN_MEMORY_PAGES + 1] + list(bps) + [
            (bps[-1] if bps else 10.0) * 2 + 10
        ]
        for lo, hi in zip(edges[:-1], edges[1:]):
            if hi <= lo + 1e-6:
                continue
            mid1 = lo + (hi - lo) * 0.25
            mid2 = lo + (hi - lo) * 0.75
            c1 = formulas.join_cost(method, a, b, mid1)
            c2 = formulas.join_cost(method, a, b, mid2)
            if method is JoinMethod.BLOCK_NESTED_LOOP and lo < max(bps or [0]):
                continue
            assert c1 == pytest.approx(c2, rel=1e-12)

    @given(a=sizes, b=sizes, m=memories)
    @settings(max_examples=60, deadline=None)
    def test_sm_and_gh_symmetric(self, a, b, m):
        assert formulas.sort_merge_cost(a, b, m) == formulas.sort_merge_cost(b, a, m)
        assert formulas.grace_hash_cost(a, b, m) == formulas.grace_hash_cost(b, a, m)

    @given(a=sizes, b=sizes, m=memories)
    @settings(max_examples=60, deadline=None)
    def test_grace_never_beaten_by_more_passes(self, a, b, m):
        # GH <= SM in this simplified model whenever both are beyond
        # in-memory (2 vs 2,4,6 passes at the same thresholds or better).
        assert formulas.grace_hash_cost(a, b, m) <= formulas.sort_merge_cost(
            a, b, m
        ) + 1e-9
