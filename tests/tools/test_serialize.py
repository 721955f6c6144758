"""Tests for JSON serialization of plans and plan stores."""

from __future__ import annotations

import json
import math

import numpy as np
import pytest

from repro.core.distributions import DiscreteDistribution, two_point
from repro.costmodel.model import CostModel
from repro.plans.nodes import Join, Plan, Scan, Sort
from repro.plans.properties import AccessPath, JoinMethod
from repro.strategies.choice_nodes import build_choice_plan
from repro.strategies.parametric import parametric_optimize
from repro.tools.serialize import (
    SerializationError,
    distribution_from_dict,
    distribution_to_dict,
    dumps,
    loads,
    plan_from_dict,
    plan_to_dict,
)


@pytest.fixture
def sample_plan() -> Plan:
    join = Join(
        Join(
            Scan("R", access=AccessPath.INDEX_SCAN, filter_label="f"),
            Scan("S"),
            JoinMethod.SORT_MERGE,
            "R=S",
            "k",
        ),
        Scan("T"),
        JoinMethod.GRACE_HASH,
        "S=T",
    )
    return Plan(Sort(child=join, sort_order="k"))


class TestPlanRoundTrip:
    def test_identity(self, sample_plan):
        doc = plan_to_dict(sample_plan)
        back = plan_from_dict(doc)
        assert back == sample_plan
        assert back.signature() == sample_plan.signature()

    def test_json_string_roundtrip(self, sample_plan):
        text = dumps(sample_plan)
        json.loads(text)  # valid JSON
        assert loads(text) == sample_plan

    def test_order_labels_preserved(self, sample_plan):
        back = loads(dumps(sample_plan))
        inner = back.joins()[0]
        assert inner.order_label == "k"
        assert inner.order == "k"

    def test_access_paths_preserved(self, sample_plan):
        back = loads(dumps(sample_plan))
        scan = back.scans()[0]
        assert scan.access is AccessPath.INDEX_SCAN
        assert scan.filter_label == "f"

    def test_costable_after_roundtrip(self, sample_plan, three_way_query):
        plain = Plan(
            Join(
                Join(Scan("R"), Scan("S"), JoinMethod.SORT_MERGE, "R=S"),
                Scan("T"),
                JoinMethod.GRACE_HASH,
                "S=T",
            )
        )
        back = loads(dumps(plain))
        cm = CostModel(count_evaluations=False)
        assert cm.plan_cost(back, three_way_query, 500.0) == pytest.approx(
            cm.plan_cost(plain, three_way_query, 500.0)
        )

    def test_rejects_garbage(self):
        with pytest.raises(SerializationError):
            plan_from_dict({"kind": "plan", "root": {"op": "teleport"}})
        with pytest.raises(SerializationError):
            plan_from_dict({"not": "a plan"})
        with pytest.raises(SerializationError):
            plan_from_dict(
                {"kind": "plan", "root": {"op": "join", "method": "ZZ"}}
            )


class TestDistributionRoundTrip:
    def test_identity(self):
        d = two_point(2000.0, 0.8, 700.0)
        assert loads(dumps(d)) == d

    def test_rejects_bad_probs(self):
        with pytest.raises(SerializationError):
            distribution_from_dict(
                {"kind": "distribution", "values": [1.0], "probs": [0.5]}
            )

    def test_a_document_decodes_bit_for_bit(self):
        # The constructor would renormalise the masses: 302 of these came
        # back an ulp off, equal under a tolerant ``==`` but not bytewise.
        rng = np.random.default_rng(2000)
        for b in rng.integers(1, 17, 2000):
            d = DiscreteDistribution(np.sort(rng.uniform(0, 1e6, b)), rng.dirichlet(np.ones(b)))
            back = distribution_from_dict(distribution_to_dict(d))
            assert (back.values.tobytes(), back.probs.tobytes()) == (
                d.values.tobytes(), d.probs.tobytes())


class TestPlanStores:
    def test_parametric_roundtrip(self, example_query):
        pset = parametric_optimize(example_query, 100.0, 5000.0)
        back = loads(dumps(pset))
        assert back.n_regions == pset.n_regions
        for m in (150.0, 700.0, 2000.0, 9000.0):
            assert back.plan_for(m) == pset.plan_for(m)
        assert math.isinf(back.regions[-1].hi)

    def test_choice_plan_roundtrip(self, example_query):
        cp = build_choice_plan(example_query, 100.0, 5000.0)
        back = loads(dumps(cp))
        assert back.thresholds == cp.thresholds
        for m in (200.0, 1500.0):
            assert back.resolve(m) == cp.resolve(m)

    def test_startup_lookup_after_roundtrip(self, example_query, bimodal_memory):
        """The paper's store-at-compile-time / look-up-at-start-up flow."""
        pset = parametric_optimize(example_query, 100.0, 5000.0)
        stored = dumps(pset)
        # ... a different process, later ...
        restored = loads(stored)
        cost = restored.expected_cost_with_lookup(example_query, bimodal_memory)
        assert cost == pytest.approx(
            pset.expected_cost_with_lookup(example_query, bimodal_memory)
        )


class TestTopLevel:
    def test_unknown_kind(self):
        with pytest.raises(SerializationError):
            loads('{"kind": "spaceship"}')

    def test_invalid_json(self):
        with pytest.raises(SerializationError):
            loads("{nope")

    def test_missing_kind(self):
        with pytest.raises(SerializationError):
            loads('{"values": [1]}')

    def test_unsupported_type(self):
        with pytest.raises(SerializationError):
            dumps(42)


class TestPropertyRoundTrip:
    """Hypothesis: every generated plan survives dumps/loads unchanged."""

    def test_random_plans_roundtrip(self):
        import numpy as np
        from hypothesis import given, settings
        from hypothesis import strategies as st

        from repro.costmodel.model import DEFAULT_METHODS
        from repro.optimizer.exhaustive import enumerate_left_deep_plans
        from repro.workloads.queries import random_query

        @given(
            seed=st.integers(0, 2**31),
            n=st.integers(2, 4),
            take=st.integers(0, 30),
        )
        @settings(max_examples=40, deadline=None)
        def check(seed, n, take):
            rng = np.random.default_rng(seed)
            q = random_query(n, rng)
            plans = list(enumerate_left_deep_plans(q, DEFAULT_METHODS))
            plan = plans[take % len(plans)]
            assert loads(dumps(plan)) == plan

        check()

    def test_random_distributions_roundtrip(self):
        import numpy as np
        from hypothesis import given, settings
        from hypothesis import strategies as st

        from repro.core.distributions import DiscreteDistribution

        @given(seed=st.integers(0, 2**31), b=st.integers(1, 12))
        @settings(max_examples=40, deadline=None)
        def check(seed, b):
            rng = np.random.default_rng(seed)
            d = DiscreteDistribution(
                np.sort(rng.uniform(0, 1e6, b)), rng.dirichlet(np.ones(b))
            )
            back = loads(dumps(d))
            assert back == d

        check()


class TestExactInverseProperties:
    """to_dict/from_dict are exact inverses at the dict layer too (not
    just through the JSON string round-trip)."""

    def test_plan_dict_exact_inverse(self):
        import numpy as np
        from hypothesis import given, settings
        from hypothesis import strategies as st

        from repro.costmodel.model import DEFAULT_METHODS
        from repro.optimizer.exhaustive import enumerate_left_deep_plans
        from repro.workloads.queries import random_query

        @given(
            seed=st.integers(0, 2**31),
            n=st.integers(2, 4),
            take=st.integers(0, 30),
        )
        @settings(max_examples=40, deadline=None)
        def check(seed, n, take):
            rng = np.random.default_rng(seed)
            q = random_query(n, rng)
            plans = list(enumerate_left_deep_plans(q, DEFAULT_METHODS))
            plan = plans[take % len(plans)]
            doc = plan_to_dict(plan)
            back = plan_from_dict(doc)
            assert back == plan
            # Encoding the decoded plan reproduces the document exactly.
            assert plan_to_dict(back) == doc

        check()

    def test_distribution_dict_exact_inverse(self):
        import numpy as np
        from hypothesis import given, settings
        from hypothesis import strategies as st

        from repro.core.distributions import DiscreteDistribution
        from repro.tools.serialize import distribution_to_dict

        @given(seed=st.integers(0, 2**31), b=st.integers(1, 12))
        @settings(max_examples=40, deadline=None)
        def check(seed, b):
            rng = np.random.default_rng(seed)
            d = DiscreteDistribution(
                np.sort(rng.uniform(0, 1e6, b)), rng.dirichlet(np.ones(b))
            )
            back = distribution_from_dict(distribution_to_dict(d))
            # Support points survive bit-exactly; probabilities are
            # renormalised on construction, so allow only float-ulp drift.
            assert np.array_equal(np.asarray(back.values), np.asarray(d.values))
            assert np.max(np.abs(np.asarray(back.probs) - np.asarray(d.probs))) < 1e-15
            assert back == d
            assert back.mean() == pytest.approx(d.mean(), abs=1e-9)

        check()


class TestMalformedDocumentsRaiseCleanly:
    """Corrupted documents raise SerializationError — never KeyError,
    TypeError or AttributeError — no matter which field is mangled."""

    _GARBAGE = [None, [], {}, "bogus", 3.5, [["nested"]]]

    def _corrupt(self, doc, path, mode, garbage_i):
        """Return a deep copy of ``doc`` with one node deleted/mangled."""
        import copy

        doc = copy.deepcopy(doc)
        node = doc
        for step in path[:-1]:
            node = node[step]
        if mode == "delete":
            del node[path[-1]]
        else:
            node[path[-1]] = self._GARBAGE[garbage_i % len(self._GARBAGE)]
        return doc

    def _paths(self, node, prefix=()):
        """Every (path, key) location in a nested dict/list document."""
        out = []
        if isinstance(node, dict):
            items = node.items()
        elif isinstance(node, list):
            items = enumerate(node)
        else:
            return out
        for key, value in items:
            out.append(prefix + (key,))
            out.extend(self._paths(value, prefix + (key,)))
        return out

    def _assert_clean(self, decoder, doc):
        try:
            decoder(doc)
        except SerializationError:
            pass  # the contract: malformed input -> SerializationError
        # Decoding may also *succeed* when the mangled field was optional.

    def test_corrupted_plan_documents(self, sample_plan):
        from hypothesis import given, settings
        from hypothesis import strategies as st

        doc = plan_to_dict(sample_plan)
        paths = self._paths(doc)

        @given(
            which=st.integers(0, len(paths) - 1),
            mode=st.sampled_from(["delete", "garbage"]),
            garbage_i=st.integers(0, 5),
        )
        @settings(max_examples=120, deadline=None)
        def check(which, mode, garbage_i):
            path = paths[which]
            if mode == "delete" and not isinstance(path[-1], str):
                mode = "garbage"  # cannot del a list index meaningfully here
            self._assert_clean(plan_from_dict, self._corrupt(doc, path, mode, garbage_i))

        check()

    def test_corrupted_distribution_documents(self):
        from hypothesis import given, settings
        from hypothesis import strategies as st

        from repro.core.distributions import two_point
        from repro.tools.serialize import distribution_to_dict

        doc = distribution_to_dict(two_point(2000.0, 0.8, 700.0))
        paths = self._paths(doc)

        @given(
            which=st.integers(0, len(paths) - 1),
            mode=st.sampled_from(["delete", "garbage"]),
            garbage_i=st.integers(0, 5),
        )
        @settings(max_examples=120, deadline=None)
        def check(which, mode, garbage_i):
            path = paths[which]
            if mode == "delete" and not isinstance(path[-1], str):
                mode = "garbage"
            self._assert_clean(
                distribution_from_dict, self._corrupt(doc, path, mode, garbage_i)
            )

        check()

    def test_corrupted_store_documents(self, example_query):
        from hypothesis import given, settings
        from hypothesis import strategies as st

        from repro.strategies.choice_nodes import build_choice_plan
        from repro.tools.serialize import (
            choice_plan_from_dict,
            choice_plan_to_dict,
            parametric_from_dict,
            parametric_to_dict,
        )

        cp_doc = choice_plan_to_dict(build_choice_plan(example_query, 100.0, 5000.0))
        ps_doc = parametric_to_dict(parametric_optimize(example_query, 100.0, 5000.0))
        cases = [
            (choice_plan_from_dict, cp_doc, self._paths(cp_doc)),
            (parametric_from_dict, ps_doc, self._paths(ps_doc)),
        ]

        @given(
            case=st.integers(0, 1),
            which=st.integers(0, 10**6),
            mode=st.sampled_from(["delete", "garbage"]),
            garbage_i=st.integers(0, 5),
        )
        @settings(max_examples=120, deadline=None)
        def check(case, which, mode, garbage_i):
            decoder, doc, paths = cases[case]
            path = paths[which % len(paths)]
            if mode == "delete" and not isinstance(path[-1], str):
                mode = "garbage"
            self._assert_clean(decoder, self._corrupt(doc, path, mode, garbage_i))

        check()

    def test_unhashable_kind_tag(self):
        with pytest.raises(SerializationError):
            loads('{"kind": ["plan"]}')


class TestQueryRoundTrip:
    """Query documents are the cluster's wire format: the decoded query
    must fingerprint *identically* to the original, or cross-process
    cache keys would never match."""

    def _rich_query(self):
        from repro.core.distributions import DiscreteDistribution
        from repro.plans.query import (
            IndexInfo,
            JoinPredicate,
            JoinQuery,
            RelationSpec,
        )

        rels = [
            RelationSpec(
                name="R",
                pages=1000.0,
                rows=50_000.0,
                pages_dist=DiscreteDistribution([800.0, 1200.0], [0.5, 0.5]),
                filter_selectivity=0.2,
                index=IndexInfo(height=3, clustered=True),
            ),
            RelationSpec(name="S", pages=500.0),
            RelationSpec(name="T", pages=50.0,
                         index=IndexInfo(height=2, clustered=False)),
        ]
        preds = [
            JoinPredicate(
                "R", "S", 0.001, label="R=S",
                selectivity_dist=two_point(0.0005, 0.002, 0.5),
                equiv_class="x",
            ),
            JoinPredicate("S", "T", 0.01, label="S=T",
                          result_pages_override=3000.0, equiv_class="x"),
        ]
        return JoinQuery(rels, preds)

    def test_rich_join_query_roundtrips_every_field(self):
        from repro.core.context import query_fingerprint
        from repro.tools.serialize import query_from_dict, query_to_dict

        query = self._rich_query()
        doc = json.loads(json.dumps(query_to_dict(query)))  # wire-safe
        back = query_from_dict(doc)
        assert query_fingerprint(back) == query_fingerprint(query)
        assert back.relations[0].index.height == 3
        assert back.relations[0].index.clustered is True
        assert back.relations[0].pages_dist is not None
        assert back.predicates[0].equiv_class == "x"
        assert back.predicates[1].result_pages_override == 3000.0

    def test_union_query_roundtrips(self):
        import numpy as np

        from repro.core.context import query_fingerprint
        from repro.tools.serialize import query_from_dict, query_to_dict
        from repro.workloads.queries import union_query

        rng = np.random.default_rng(3)
        query = union_query(2, 3, rng, distinct=True)
        back = query_from_dict(query_to_dict(query))
        assert type(back).__name__ == "UnionQuery"
        assert back.distinct is True
        assert query_fingerprint(back) == query_fingerprint(query)

    def test_dumps_loads_dispatch_on_query_kind(self):
        from repro.core.context import query_fingerprint
        from repro.tools.serialize import dumps, loads

        query = self._rich_query()
        back = loads(dumps(query))
        assert query_fingerprint(back) == query_fingerprint(query)

    def test_bad_query_documents_raise(self):
        from repro.tools.serialize import query_from_dict

        with pytest.raises(SerializationError):
            query_from_dict({"kind": "plan"})
        with pytest.raises(SerializationError):
            query_from_dict({"kind": "query", "version": 1})  # no relations

    def test_invalid_query_content_raises_serialization_error(self):
        from repro.tools.serialize import query_from_dict

        doc = {
            "kind": "query", "version": 1,
            "relations": [{"name": "R", "pages": -5.0}],
            "predicates": [],
        }
        with pytest.raises(SerializationError):
            query_from_dict(doc)


class TestMarkovRoundTrip:
    def test_markov_parameter_roundtrips(self):
        from repro.core.markov import MarkovParameter
        from repro.tools.serialize import dumps, loads, markov_to_dict

        param = MarkovParameter(
            states=[100.0, 1000.0],
            initial=[0.25, 0.75],
            transition=[[0.9, 0.1], [0.3, 0.7]],
        )
        back = loads(dumps(param))
        assert isinstance(back, MarkovParameter)
        assert list(back.states) == [100.0, 1000.0]
        assert markov_to_dict(back) == markov_to_dict(param)

    def test_bad_markov_documents_raise(self):
        from repro.tools.serialize import markov_from_dict

        with pytest.raises(SerializationError):
            markov_from_dict({"kind": "distribution"})
        with pytest.raises(SerializationError):
            markov_from_dict({"kind": "markov_parameter", "states": [1.0]})
