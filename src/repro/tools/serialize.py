"""JSON (de)serialization of plans, distributions and plan stores.

The paper's compile-time/start-up split needs persistence: "we can
precompute the best expected plan under a number of possible
distributions ... and store these expected plans, for use at query
execution time."  This module provides the storage format — plain JSON
dictionaries for plan trees, discrete distributions, parametric plan
sets and choice plans — so a compile-time process can hand plans to a
start-up process (or a test can round-trip them).

Formats are versioned with a ``"kind"`` tag; deserialization validates
structure and raises :class:`SerializationError` on anything unexpected.
"""

from __future__ import annotations

import json
import math
from typing import Any, Dict

from ..core.distributions import DiscreteDistribution
from ..core.markov import MarkovParameter
from ..plans.nodes import Join, Plan, PlanNode, Project, Scan, Sort
from ..plans.nodes import Union as UnionNode
from ..plans.properties import AccessPath, JoinMethod
from ..plans.query import IndexInfo, JoinPredicate, JoinQuery, QueryError, RelationSpec
from ..plans.spju import UnionQuery
from ..strategies.choice_nodes import ChoicePlan
from ..strategies.parametric import ParametricPlanSet, _Region

__all__ = [
    "SerializationError",
    "plan_to_dict",
    "plan_from_dict",
    "distribution_to_dict",
    "distribution_from_dict",
    "markov_to_dict",
    "markov_from_dict",
    "query_to_dict",
    "query_from_dict",
    "choice_plan_to_dict",
    "choice_plan_from_dict",
    "parametric_to_dict",
    "parametric_from_dict",
    "dumps",
    "loads",
]


class SerializationError(ValueError):
    """Raised when a document cannot be decoded into the requested type."""


# ----------------------------------------------------------------------
# Plans
# ----------------------------------------------------------------------


def _node_to_dict(node: PlanNode) -> Dict[str, Any]:
    if isinstance(node, Scan):
        return {
            "op": "scan",
            "table": node.table,
            "access": node.access.value,
            "filter_label": node.filter_label,
        }
    if isinstance(node, Sort):
        return {
            "op": "sort",
            "order": node.sort_order,
            "child": _node_to_dict(node.child),
        }
    if isinstance(node, Project):
        return {
            "op": "project",
            "label": node.label,
            "child": _node_to_dict(node.child),
        }
    if isinstance(node, UnionNode):
        return {
            "op": "union",
            "distinct": node.distinct,
            "inputs": [_node_to_dict(child) for child in node.inputs],
        }
    if isinstance(node, Join):
        return {
            "op": "join",
            "method": node.method.value,
            "predicate": node.predicate_label,
            "order_label": node.order_label,
            "left": _node_to_dict(node.left),
            "right": _node_to_dict(node.right),
        }
    raise SerializationError(
        f"cannot encode plan node of type {type(node).__name__}"
    )


def _node_from_dict(doc: Dict[str, Any]) -> PlanNode:
    try:
        op = doc["op"]
    except (TypeError, KeyError):
        raise SerializationError("plan node document missing 'op'") from None
    if op == "scan":
        try:
            access = AccessPath(doc.get("access", "scan"))
        except ValueError:
            raise SerializationError(
                f"unknown access path {doc.get('access')!r}"
            ) from None
        return Scan(
            table=doc["table"],
            access=access,
            filter_label=doc.get("filter_label"),
        )
    if op == "sort":
        return Sort(child=_node_from_dict(doc["child"]), sort_order=doc["order"])
    if op == "project":
        return Project(child=_node_from_dict(doc["child"]), label=doc.get("label"))
    if op == "union":
        inputs = doc.get("inputs")
        if not isinstance(inputs, list) or len(inputs) < 2:
            raise SerializationError(
                "union node needs a list of at least two inputs"
            )
        return UnionNode(
            inputs=tuple(_node_from_dict(d) for d in inputs),
            distinct=bool(doc.get("distinct", False)),
        )
    if op == "join":
        try:
            method = JoinMethod(doc["method"])
        except (ValueError, KeyError):
            raise SerializationError(
                f"unknown join method {doc.get('method')!r}"
            ) from None
        # Decoding reconstructs a tree already admitted by some space;
        # no shape decision is being made here.
        return Join(
            left=_node_from_dict(doc["left"]),
            right=_node_from_dict(doc["right"]),
            method=method,
            predicate_label=doc["predicate"],
            order_label=doc.get("order_label"),
        )
    raise SerializationError(f"unknown plan operator {op!r}")


def plan_to_dict(plan: Plan) -> Dict[str, Any]:
    """Encode a plan tree as a JSON-compatible dictionary.

    Emits format ``version: 2``, which adds the ``project`` and ``union``
    node kinds for SPJU plans; version-1 documents (select-join plans)
    decode unchanged.
    """
    return {"kind": "plan", "version": 2, "root": _node_to_dict(plan.root)}


def plan_from_dict(doc: Dict[str, Any]) -> Plan:
    """Decode a plan tree (format versions 1 and 2);
    raises :class:`SerializationError` if invalid."""
    if not isinstance(doc, dict) or doc.get("kind") != "plan":
        raise SerializationError("not a plan document")
    version = doc.get("version", 1)
    if version not in (1, 2):
        raise SerializationError(f"unsupported plan document version {version!r}")
    try:
        return Plan(_node_from_dict(doc["root"]))
    except KeyError as exc:
        raise SerializationError(f"plan document missing field {exc}") from None
    except TypeError as exc:
        raise SerializationError(f"malformed plan document: {exc}") from None


# ----------------------------------------------------------------------
# Distributions
# ----------------------------------------------------------------------


def distribution_to_dict(dist: DiscreteDistribution) -> Dict[str, Any]:
    """Encode a discrete distribution."""
    return {
        "kind": "distribution",
        "version": 1,
        "values": [float(v) for v in dist.values],
        "probs": [float(p) for p in dist.probs],
    }


def distribution_from_dict(doc: Dict[str, Any]) -> DiscreteDistribution:
    """Decode a discrete distribution: bit for bit the one that wrote ``doc``."""
    if not isinstance(doc, dict) or doc.get("kind") != "distribution":
        raise SerializationError("not a distribution document")
    try:
        return DiscreteDistribution._decoded(doc["values"], doc["probs"])
    except (KeyError, ValueError, TypeError) as exc:
        raise SerializationError(f"bad distribution document: {exc}") from None


def markov_to_dict(param: MarkovParameter) -> Dict[str, Any]:
    """Encode a Markov-chain parameter (states, initial, transition)."""
    return {
        "kind": "markov_parameter",
        "version": 1,
        "states": [float(s) for s in param.states],
        "initial": [float(p) for p in param.initial],
        "transition": [[float(t) for t in row] for row in param.transition],
    }


def markov_from_dict(doc: Dict[str, Any]) -> MarkovParameter:
    """Decode a Markov-chain parameter."""
    if not isinstance(doc, dict) or doc.get("kind") != "markov_parameter":
        raise SerializationError("not a markov parameter document")
    try:
        return MarkovParameter(doc["states"], doc["initial"], doc["transition"])
    except (KeyError, ValueError, TypeError) as exc:
        raise SerializationError(f"bad markov parameter document: {exc}") from None


# ----------------------------------------------------------------------
# Queries
# ----------------------------------------------------------------------

def _relation_to_dict(rel: RelationSpec) -> Dict[str, Any]:
    doc: Dict[str, Any] = {"name": rel.name, "pages": float(rel.pages)}
    if rel.rows is not None:
        doc["rows"] = float(rel.rows)
    if rel.pages_dist is not None:
        doc["pages_dist"] = distribution_to_dict(rel.pages_dist)
    doc["filter_selectivity"] = float(rel.filter_selectivity)
    if rel.index is not None:
        doc["index"] = {
            "height": rel.index.height,
            "clustered": rel.index.clustered,
        }
    return doc


def _relation_from_dict(doc: Dict[str, Any]) -> RelationSpec:
    index = None
    if doc.get("index") is not None:
        idx = doc["index"]
        index = IndexInfo(
            height=int(idx.get("height", 2)),
            clustered=bool(idx.get("clustered", False)),
        )
    pages_dist = None
    if doc.get("pages_dist") is not None:
        pages_dist = distribution_from_dict(doc["pages_dist"])
    return RelationSpec(
        name=doc["name"],
        pages=float(doc["pages"]),
        rows=None if doc.get("rows") is None else float(doc["rows"]),
        pages_dist=pages_dist,
        filter_selectivity=float(doc.get("filter_selectivity", 1.0)),
        index=index,
    )


def _predicate_to_dict(pred: JoinPredicate) -> Dict[str, Any]:
    doc: Dict[str, Any] = {
        "left": pred.left,
        "right": pred.right,
        "selectivity": float(pred.selectivity),
        "label": pred.label,
    }
    if pred.selectivity_dist is not None:
        doc["selectivity_dist"] = distribution_to_dict(pred.selectivity_dist)
    if pred.result_pages_override is not None:
        doc["result_pages_override"] = float(pred.result_pages_override)
    if pred.equiv_class is not None:
        doc["equiv_class"] = pred.equiv_class
    return doc


def _predicate_from_dict(doc: Dict[str, Any]) -> JoinPredicate:
    sel_dist = None
    if doc.get("selectivity_dist") is not None:
        sel_dist = distribution_from_dict(doc["selectivity_dist"])
    override = doc.get("result_pages_override")
    return JoinPredicate(
        left=doc["left"],
        right=doc["right"],
        selectivity=float(doc["selectivity"]),
        label=doc.get("label"),
        selectivity_dist=sel_dist,
        result_pages_override=None if override is None else float(override),
        equiv_class=doc.get("equiv_class"),
    )


def _join_query_to_dict(query: JoinQuery) -> Dict[str, Any]:
    return {
        "relations": [_relation_to_dict(r) for r in query.relations],
        "predicates": [_predicate_to_dict(p) for p in query.predicates],
        "required_order": query.required_order,
        "rows_per_page": query.rows_per_page,
        "projection_ratio": float(query.projection_ratio),
    }


def _join_query_from_dict(doc: Dict[str, Any]) -> JoinQuery:
    return JoinQuery(
        relations=[_relation_from_dict(r) for r in doc["relations"]],
        predicates=[_predicate_from_dict(p) for p in doc.get("predicates", ())],
        required_order=doc.get("required_order"),
        rows_per_page=int(doc.get("rows_per_page", 100)),
        projection_ratio=float(doc.get("projection_ratio", 1.0)),
    )


def query_to_dict(query: JoinQuery) -> Dict[str, Any]:
    """Encode a logical query block — the cluster tier's request wire format.

    Plain :class:`JoinQuery` blocks carry their relations (with optional
    size distributions and index info) and predicates (with optional
    selectivity distributions); a :class:`UnionQuery` nests its arms.
    """
    if isinstance(query, UnionQuery):
        return {
            "kind": "query",
            "version": 1,
            "union": {
                "distinct": query.distinct,
                "arms": [_join_query_to_dict(a) for a in query.arms],
            },
        }
    doc = _join_query_to_dict(query)
    doc["kind"] = "query"
    doc["version"] = 1
    return doc


def query_from_dict(doc: Dict[str, Any]) -> JoinQuery:
    """Decode a logical query block (plain or union);
    raises :class:`SerializationError` if invalid."""
    if not isinstance(doc, dict) or doc.get("kind") != "query":
        raise SerializationError("not a query document")
    version = doc.get("version", 1)
    if version != 1:
        raise SerializationError(f"unsupported query document version {version!r}")
    try:
        union = doc.get("union")
        if union is not None:
            arms = [_join_query_from_dict(a) for a in union["arms"]]
            return UnionQuery(arms, distinct=bool(union.get("distinct", False)))
        return _join_query_from_dict(doc)
    except (KeyError, ValueError, TypeError, QueryError) as exc:
        raise SerializationError(f"bad query document: {exc}") from None


# ----------------------------------------------------------------------
# Plan stores (parametric / choice)
# ----------------------------------------------------------------------


def choice_plan_to_dict(cp: ChoicePlan) -> Dict[str, Any]:
    """Encode a choose-plan artifact (thresholds + alternatives)."""
    return {
        "kind": "choice_plan",
        "version": 1,
        "thresholds": list(cp.thresholds),
        "alternatives": [_node_to_dict(p.root) for p in cp.alternatives],
    }


def choice_plan_from_dict(doc: Dict[str, Any]) -> ChoicePlan:
    """Decode a choose-plan artifact."""
    if not isinstance(doc, dict) or doc.get("kind") != "choice_plan":
        raise SerializationError("not a choice plan document")
    try:
        return ChoicePlan(
            thresholds=[float(t) for t in doc["thresholds"]],
            alternatives=[Plan(_node_from_dict(d)) for d in doc["alternatives"]],
        )
    except (KeyError, ValueError, TypeError) as exc:
        raise SerializationError(f"bad choice plan document: {exc}") from None


def parametric_to_dict(pset: ParametricPlanSet) -> Dict[str, Any]:
    """Encode a parametric plan set (regions with their plans)."""
    return {
        "kind": "parametric_plan_set",
        "version": 1,
        "regions": [
            {
                "lo": r.lo,
                "hi": None if math.isinf(r.hi) else r.hi,
                "plan": _node_to_dict(r.plan.root),
                "cost_at_rep": r.cost_at_rep,
            }
            for r in pset.regions
        ],
    }


def parametric_from_dict(doc: Dict[str, Any]) -> ParametricPlanSet:
    """Decode a parametric plan set."""
    if not isinstance(doc, dict) or doc.get("kind") != "parametric_plan_set":
        raise SerializationError("not a parametric plan set document")
    try:
        regions = [
            _Region(
                lo=float(r["lo"]),
                hi=math.inf if r["hi"] is None else float(r["hi"]),
                plan=Plan(_node_from_dict(r["plan"])),
                cost_at_rep=float(r["cost_at_rep"]),
            )
            for r in doc["regions"]
        ]
    except (KeyError, ValueError, TypeError) as exc:
        raise SerializationError(f"bad parametric document: {exc}") from None
    return ParametricPlanSet(regions=regions)


# ----------------------------------------------------------------------
# Top-level helpers
# ----------------------------------------------------------------------

_DECODERS = {
    "plan": plan_from_dict,
    "distribution": distribution_from_dict,
    "markov_parameter": markov_from_dict,
    "query": query_from_dict,
    "choice_plan": choice_plan_from_dict,
    "parametric_plan_set": parametric_from_dict,
}


def dumps(obj) -> str:
    """Serialize a supported object to a JSON string."""
    if isinstance(obj, Plan):
        doc = plan_to_dict(obj)
    elif isinstance(obj, DiscreteDistribution):
        doc = distribution_to_dict(obj)
    elif isinstance(obj, MarkovParameter):
        doc = markov_to_dict(obj)
    elif isinstance(obj, JoinQuery):
        doc = query_to_dict(obj)
    elif isinstance(obj, ChoicePlan):
        doc = choice_plan_to_dict(obj)
    elif isinstance(obj, ParametricPlanSet):
        doc = parametric_to_dict(obj)
    else:
        raise SerializationError(
            f"cannot serialize objects of type {type(obj).__name__}"
        )
    return json.dumps(doc, sort_keys=True)


def loads(text: str):
    """Deserialize a JSON string produced by :func:`dumps`."""
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise SerializationError(f"invalid JSON: {exc}") from None
    if not isinstance(doc, dict) or "kind" not in doc:
        raise SerializationError("document has no 'kind' tag")
    if not isinstance(doc["kind"], str):
        raise SerializationError(f"'kind' must be a string, got {doc['kind']!r}")
    decoder = _DECODERS.get(doc["kind"])
    if decoder is None:
        raise SerializationError(f"unknown document kind {doc['kind']!r}")
    return decoder(doc)
