"""Plan algebra: physical plan trees, spaces, properties and queries."""

from .nodes import (
    Join,
    Plan,
    PlanNode,
    PlanShapeError,
    Project,
    Scan,
    Sort,
    UnionNode,
    left_deep_plan,
)
from .properties import AccessPath, JoinMethod
from .query import JoinPredicate, JoinQuery, QueryError, RelationSpec
from .space import BUSHY, LEFT_DEEP, SPJU, ZIG_ZAG, PlanSpace
from .spju import UnionQuery

__all__ = [
    "Plan",
    "PlanNode",
    "PlanShapeError",
    "Scan",
    "Join",
    "Sort",
    "Project",
    "UnionNode",
    "left_deep_plan",
    "JoinMethod",
    "AccessPath",
    "JoinQuery",
    "JoinPredicate",
    "RelationSpec",
    "QueryError",
    "UnionQuery",
    "PlanSpace",
    "LEFT_DEEP",
    "ZIG_ZAG",
    "BUSHY",
    "SPJU",
]
