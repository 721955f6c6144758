"""Unit tests for the PlanSpace abstraction."""

from __future__ import annotations

import itertools

import numpy as np
import pytest

from repro.plans import (
    BUSHY,
    LEFT_DEEP,
    SPJU,
    ZIG_ZAG,
    JoinMethod,
    Plan,
    PlanShapeError,
    PlanSpace,
    Scan,
)
from repro.plans.query import JoinQuery, RelationSpec
from repro.workloads.queries import chain_query


class TestParse:
    @pytest.mark.parametrize(
        "spelling, expected",
        [
            ("left-deep", LEFT_DEEP),
            ("left_deep", LEFT_DEEP),
            ("leftdeep", LEFT_DEEP),
            ("LEFT-DEEP", LEFT_DEEP),
            ("zig-zag", ZIG_ZAG),
            ("zigzag", ZIG_ZAG),
            ("zig_zag", ZIG_ZAG),
            ("bushy", BUSHY),
            ("spju", SPJU),
            ("bushy+union", SPJU),
            ("left-deep+union", PlanSpace("left-deep", union=True)),
        ],
    )
    def test_spellings(self, spelling, expected):
        assert PlanSpace.parse(spelling) == expected

    def test_instance_passthrough(self):
        assert PlanSpace.parse(BUSHY) is BUSHY

    @pytest.mark.parametrize("bad", ["star", "", "deep", 42, None])
    def test_rejects_unknown(self, bad):
        with pytest.raises(ValueError):
            PlanSpace.parse(bad)

    def test_key_round_trips(self):
        for space in [LEFT_DEEP, ZIG_ZAG, BUSHY, SPJU,
                      PlanSpace("zig-zag", union=True)]:
            assert PlanSpace.parse(space.key) == space

    def test_spju_key_is_canonical(self):
        assert SPJU.key == "spju"
        assert PlanSpace("left-deep", union=True).key == "left-deep+union"

    def test_bad_shape_rejected_at_construction(self):
        with pytest.raises(ValueError):
            PlanSpace("star")


class TestCapabilities:
    def test_ordered_phases(self):
        assert LEFT_DEEP.ordered_phases
        assert ZIG_ZAG.ordered_phases
        assert not BUSHY.ordered_phases
        assert not SPJU.ordered_phases

    def test_supports_union(self):
        assert SPJU.supports_union
        assert not BUSHY.supports_union
        assert not LEFT_DEEP.supports_union


class TestPartitions:
    SUBSET = frozenset({"A", "B", "C", "D"})

    def test_left_deep_splits_off_single_relations(self):
        parts = LEFT_DEEP.partitions(self.SUBSET)
        assert len(parts) == 4
        for left, right in parts:
            assert len(right) == 1
            assert left | right == self.SUBSET
            assert not left & right

    def test_zig_zag_adds_mirrors(self):
        parts = ZIG_ZAG.partitions(self.SUBSET)
        assert len(parts) == 8
        assert all(len(left) == 1 or len(right) == 1 for left, right in parts)
        mirrored = {(right, left) for left, right in parts}
        assert mirrored == set(parts)

    def test_zig_zag_two_relations_no_duplicate_mirrors(self):
        parts = ZIG_ZAG.partitions(frozenset({"A", "B"}))
        assert len(parts) == len(set(parts)) == 2

    def test_bushy_enumerates_every_ordered_split(self):
        parts = BUSHY.partitions(self.SUBSET)
        assert len(parts) == 2 ** 4 - 2
        assert len(set(parts)) == len(parts)
        for left, right in parts:
            assert left and right
            assert left | right == self.SUBSET
            assert not left & right

    def test_level_candidates_respect_connectivity(self):
        query = chain_query(4, np.random.default_rng(0))
        connected = LEFT_DEEP.level_candidates(query, 2)
        assert frozenset({"R0", "R1"}) in connected
        assert frozenset({"R0", "R2"}) not in connected
        everything = LEFT_DEEP.level_candidates(
            query, 2, allow_cross_products=True
        )
        assert len(everything) == 6


def _legacy_partitions(shape, subset):
    """``PlanSpace.partitions`` as it was before the mask routines — the
    reference sequence (the DP breaks cost ties by first arrival, so the
    order of splits is part of the plan contract)."""
    members = sorted(subset)
    n = len(members)
    if shape == "left-deep":
        return [(subset - {m}, frozenset((m,))) for m in members]
    if shape == "zig-zag":
        out = [(subset - {m}, frozenset((m,))) for m in members]
        if n > 2:
            out += [(frozenset((m,)), subset - {m}) for m in members]
        return out
    out = []
    for mask in range(1, (1 << n) - 1):
        left = frozenset(members[i] for i in range(n) if mask & (1 << i))
        out.append((left, subset - left))
    return out


class TestSplitSequence:
    #: Declared out of alphabetical order on purpose: bits follow names.
    NAMES = ["T", "B", "M", "A", "Z", "C"]

    @pytest.mark.parametrize("space", [LEFT_DEEP, ZIG_ZAG, BUSHY], ids=lambda s: s.key)
    def test_mask_splits_repeat_the_legacy_sequence(self, space):
        query = JoinQuery([RelationSpec(name, pages=10.0) for name in self.NAMES])
        order, _, _ = query.join_graph()
        assert order == sorted(self.NAMES)

        def names_of(mask):
            return frozenset(n for i, n in enumerate(order) if mask >> i & 1)

        for mask in range(1, 1 << len(order)):
            subset = names_of(mask)
            if len(subset) < 2:
                continue
            legacy = _legacy_partitions(space.shape, subset)
            assert [
                (names_of(left), names_of(right))
                for left, right in space.split_masks(mask)
            ] == legacy
            assert space.partitions(subset) == legacy

    def test_levels_hold_exactly_the_connected_subsets(self):
        query = chain_query(6, np.random.default_rng(0))
        names = query.relation_names()
        for size in range(1, 7):
            expected = {
                frozenset(combo)
                for combo in itertools.combinations(names, size)
                if query.is_connected(frozenset(combo))
            }
            level = BUSHY.level_candidates(query, size)
            assert set(level) == expected and len(level) == len(expected)
        assert BUSHY.level_candidates(query, 7) == []


class TestJoinConstruction:
    def _leaves(self):
        return Scan(table="A"), Scan(table="B"), Scan(table="C")

    def test_left_deep_rejects_composite_right(self):
        a, b, c = self._leaves()
        ab = LEFT_DEEP.join(a, b, JoinMethod.GRACE_HASH, "A=B")
        with pytest.raises(PlanShapeError):
            LEFT_DEEP.join(c, ab, JoinMethod.GRACE_HASH, "B=C")

    def test_zig_zag_accepts_composite_right_with_leaf_left(self):
        a, b, c = self._leaves()
        ab = ZIG_ZAG.join(a, b, JoinMethod.GRACE_HASH, "A=B")
        node = ZIG_ZAG.join(c, ab, JoinMethod.GRACE_HASH, "B=C")
        assert node.signature() == "(C GH (A GH B))"

    def test_bushy_accepts_composite_both_sides(self):
        a, b, c = self._leaves()
        d = Scan(table="D")
        ab = BUSHY.join(a, b, JoinMethod.GRACE_HASH, "A=B")
        cd = BUSHY.join(c, d, JoinMethod.GRACE_HASH, "C=D")
        node = BUSHY.join(ab, cd, JoinMethod.NESTED_LOOP, "B=C")
        with pytest.raises(PlanShapeError):
            ZIG_ZAG.join(ab, cd, JoinMethod.NESTED_LOOP, "B=C")
        assert BUSHY.admits(Plan(node))
        assert not ZIG_ZAG.admits(Plan(node))
        assert not LEFT_DEEP.admits(Plan(node))

    def test_admits_is_shape_hierarchy(self):
        a, b, c = self._leaves()
        ab = LEFT_DEEP.join(a, b, JoinMethod.GRACE_HASH, "A=B")
        abc = LEFT_DEEP.join(ab, c, JoinMethod.SORT_MERGE, "B=C")
        plan = Plan(abc)
        assert LEFT_DEEP.admits(plan)
        assert ZIG_ZAG.admits(plan)
        assert BUSHY.admits(plan)
