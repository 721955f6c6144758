"""Tests for JoinQuery, RelationSpec and JoinPredicate."""

from __future__ import annotations

import copy
import dataclasses
import pickle

import pytest

from repro.catalog.schema import Catalog, Column, Table
from repro.catalog.statistics import StatisticsCatalog
from repro.core.distributions import two_point
from repro.costmodel.context import query_fingerprint
from repro.plans.query import JoinPredicate, JoinQuery, QueryError, RelationSpec
from repro.plans.spju import UnionQuery


class TestRelationSpec:
    def test_defaults(self):
        r = RelationSpec("R", pages=100.0)
        assert r.filter_selectivity == 1.0
        assert r.pages_distribution().is_point_mass()

    def test_pages_distribution_passthrough(self):
        d = two_point(50.0, 0.5, 150.0)
        r = RelationSpec("R", pages=100.0, pages_dist=d)
        assert r.pages_distribution() is d

    def test_point_mass_is_one_object_per_spec(self):
        r = RelationSpec("R", pages=100.0)
        first = r.pages_distribution()
        assert r.pages_distribution() is first
        assert first.is_point_mass() and first.mean() == 100.0
        # ... and not of a spec derived from it.
        bigger = dataclasses.replace(r, pages=250.0)
        assert bigger.pages_distribution() is not first
        assert bigger.pages_distribution().mean() == 250.0

    def test_cached_point_mass_is_not_part_of_the_spec(self):
        fresh, used = RelationSpec("R", pages=100.0), RelationSpec("R", pages=100.0)
        before = (repr(used), hash(used))
        used.pages_distribution()
        assert used == fresh and hash(used) == hash(fresh)
        assert (repr(used), hash(used)) == before
        assert dataclasses.asdict(used) == dataclasses.asdict(fresh)
        assert query_fingerprint(JoinQuery([used])) == query_fingerprint(
            JoinQuery([fresh])
        )

    def test_rejects_negative_pages(self):
        with pytest.raises(QueryError):
            RelationSpec("R", pages=-1.0)

    def test_rejects_bad_filter(self):
        with pytest.raises(QueryError):
            RelationSpec("R", pages=1.0, filter_selectivity=1.5)


class TestJoinPredicate:
    def test_label_defaults_to_canonical_pair(self):
        p = JoinPredicate("B", "A", selectivity=0.1)
        assert p.label == "A=B"

    def test_selectivity_distribution_default(self):
        p = JoinPredicate("A", "B", selectivity=0.25)
        assert p.selectivity_distribution().mean() == pytest.approx(0.25)

    def test_point_mass_is_one_object_per_predicate(self):
        fresh = JoinPredicate("A", "B", selectivity=0.25)
        used = JoinPredicate("A", "B", selectivity=0.25)
        first = used.selectivity_distribution()
        assert used.selectivity_distribution() is first
        assert used == fresh and hash(used) == hash(fresh)
        assert repr(used) == repr(fresh)
        halved = dataclasses.replace(used, selectivity=0.125)
        assert halved.selectivity_distribution() is not first
        assert halved.selectivity_distribution().mean() == 0.125

    def test_selectivity_distribution_passthrough(self):
        d = two_point(0.1, 0.5, 0.3)
        p = JoinPredicate("A", "B", selectivity=0.2, selectivity_dist=d)
        assert p.selectivity_distribution() is d

    def test_rejects_bad_selectivity(self):
        with pytest.raises(QueryError):
            JoinPredicate("A", "B", selectivity=1.5)


class TestJoinQuery:
    def test_basic_lookups(self, three_way_query):
        assert three_way_query.n_relations == 3
        assert three_way_query.relation("S").pages == 8_000.0
        assert three_way_query.relation_names() == ["R", "S", "T"]
        assert three_way_query.pages_of("T") == 1_000.0
        assert three_way_query.rows_of("T") == 100_000.0

    def test_unknown_relation(self, three_way_query):
        with pytest.raises(QueryError):
            three_way_query.relation("Z")

    def test_rows_respects_filter(self):
        q = JoinQuery([RelationSpec("X", pages=10.0, filter_selectivity=0.5)])
        assert q.rows_of("X") == pytest.approx(500.0)

    def test_predicates_within(self, three_way_query):
        preds = three_way_query.predicates_within(frozenset(["R", "S"]))
        assert [p.label for p in preds] == ["R=S"]
        assert (
            len(three_way_query.predicates_within(frozenset(["R", "S", "T"]))) == 2
        )

    def test_predicates_between(self, three_way_query):
        preds = three_way_query.predicates_between(frozenset(["R", "S"]), "T")
        assert [p.label for p in preds] == ["S=T"]
        assert three_way_query.predicates_between(frozenset(["R"]), "T") == []

    def test_connectivity(self, three_way_query):
        assert three_way_query.is_connected()
        assert three_way_query.is_connected(frozenset(["R", "S"]))
        assert not three_way_query.is_connected(frozenset(["R", "T"]))
        assert three_way_query.is_connected(frozenset(["R"]))

    def test_duplicate_relations_rejected(self):
        with pytest.raises(QueryError):
            JoinQuery(
                [RelationSpec("A", pages=1.0), RelationSpec("A", pages=2.0)]
            )

    def test_unknown_predicate_endpoint_rejected(self):
        with pytest.raises(QueryError):
            JoinQuery(
                [RelationSpec("A", pages=1.0)],
                [JoinPredicate("A", "Z", selectivity=0.5)],
            )

    def test_self_join_rejected(self):
        with pytest.raises(QueryError):
            JoinQuery(
                [RelationSpec("A", pages=1.0)],
                [JoinPredicate("A", "A", selectivity=0.5)],
            )

    def test_required_order_must_be_predicate_label(self):
        with pytest.raises(QueryError):
            JoinQuery(
                [RelationSpec("A", pages=1.0), RelationSpec("B", pages=1.0)],
                [JoinPredicate("A", "B", selectivity=0.5, label="A=B")],
                required_order="bogus",
            )

    def test_empty_query_rejected(self):
        with pytest.raises(QueryError):
            JoinQuery([])

    def test_has_uncertain_sizes(self, three_way_query):
        assert not three_way_query.has_uncertain_sizes()
        q = JoinQuery(
            [
                RelationSpec("A", pages=1.0, pages_dist=two_point(1.0, 0.5, 2.0)),
                RelationSpec("B", pages=1.0),
            ],
            [JoinPredicate("A", "B", selectivity=0.5)],
        )
        assert q.has_uncertain_sizes()


class TestImmutable:
    """A query cannot change once built, so what is kept from it (its
    fingerprint, its wire document) cannot go stale."""

    FIELDS = ("relations", "predicates", "required_order", "rows_per_page",
              "projection_ratio", "_by_name", "fingerprint", "anything_new")

    @pytest.mark.parametrize("name", FIELDS)
    def test_assigning_a_field_raises(self, three_way_query, name):
        before = query_fingerprint(three_way_query)
        with pytest.raises(AttributeError, match="immutable"):
            setattr(three_way_query, name, None)
        assert query_fingerprint(three_way_query) is before

    def test_the_name_index_is_read_only(self, three_way_query):
        with pytest.raises(TypeError):
            three_way_query._by_name["Z"] = RelationSpec("Z", pages=1.0)
        assert three_way_query.relation_names() == list(three_way_query._by_name)

    @pytest.mark.parametrize("name", ("arms", "distinct", "_arm_index",
                                      "relations", "required_order"))
    def test_a_union_is_sealed_after_its_own_fields(self, name):
        arms = [JoinQuery([RelationSpec(a, pages=10.0), RelationSpec(b, pages=20.0)],
                          [JoinPredicate(a, b, selectivity=0.1)])
                for a, b in ("AB", "CD")]
        union = UnionQuery(arms, distinct=True)
        assert union.distinct and union.arm_of({"C"}) is arms[1]
        query_fingerprint(union)  # a cached property still fills
        with pytest.raises(AttributeError, match="immutable"):
            setattr(union, name, None)
        with pytest.raises(TypeError):
            union._arm_index["A"] = 1

    @pytest.mark.parametrize("round_trip", [lambda q: pickle.loads(pickle.dumps(q)),
                                            copy.deepcopy, copy.copy],
                             ids=["pickle", "deepcopy", "copy"])
    @pytest.mark.parametrize("union", [False, True], ids=["join", "union"])
    def test_a_copy_is_equal_read_only_and_sealed(self, three_way_query, round_trip, union):
        query = three_way_query
        if union:
            arm = JoinQuery([RelationSpec("X", pages=10.0), RelationSpec("Y", pages=20.0)],
                            [JoinPredicate("X", "Y", selectivity=0.1)],
                            rows_per_page=three_way_query.rows_per_page)
            query = UnionQuery([three_way_query, arm], distinct=True)
        before = query_fingerprint(query)
        again = round_trip(query)
        assert type(again) is type(query) and query_fingerprint(again) == before
        assert again.relation_names() == query.relation_names()
        with pytest.raises(TypeError):
            again._by_name["Z"] = RelationSpec("Z", pages=1.0)
        with pytest.raises(AttributeError, match="immutable"):
            again.rows_per_page = 1
        if union:
            assert again.arm_of({"X"}).relation_names() == ["X", "Y"]
            with pytest.raises(TypeError):
                again._arm_index["A"] = 1


class TestFromCatalog:
    def test_builds_query_with_classic_selectivity(self):
        catalog = Catalog(
            [
                Table(
                    "emp",
                    [Column("id", n_distinct=10_000), Column("dept", n_distinct=100)],
                    n_rows=10_000,
                    rows_per_page=100,
                ),
                Table(
                    "dept",
                    [Column("id", n_distinct=100)],
                    n_rows=100,
                    rows_per_page=100,
                ),
            ]
        )
        stats = StatisticsCatalog(catalog)
        q = JoinQuery.from_catalog(
            stats,
            ["emp", "dept"],
            {("emp", "dept"): ("dept", "id")},
        )
        assert q.n_relations == 2
        pred = q.predicates[0]
        assert pred.selectivity == pytest.approx(1.0 / 100)
        assert q.relation("emp").pages == 100.0
