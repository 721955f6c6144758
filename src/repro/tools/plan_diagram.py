"""Plan diagrams: which plan is optimal where in parameter space.

The visual companion to parametric optimization: sample a grid over one
or two uncertain parameters, run the point (LSC) optimizer at each cell,
and render the resulting plan regions as an ASCII map with a legend —
the classic "plan diagram" picture, in the terminal.

The diagrams make the paper's core geometry visible: the parameter axis
fragments into plan regions whose boundaries are the cost-formula
breakpoints, and a distribution straddling a boundary is exactly the
situation where LEC and LSC diverge.
"""

from __future__ import annotations

import math
import string
from dataclasses import dataclass, field
from typing import Dict, List, Optional

from ..costmodel.model import CostModel
from ..optimizer import optimize_lsc
from ..plans.query import JoinPredicate, JoinQuery

__all__ = ["PlanDiagram", "memory_plan_diagram", "memory_selectivity_diagram"]

_LETTERS = string.ascii_uppercase + string.ascii_lowercase + string.digits


@dataclass
class PlanDiagram:
    """A grid of optimal-plan letters plus the letter → plan legend.

    ``grid[row][col]`` corresponds to ``y_values[row]`` (first axis) and
    ``x_values[col]``; for one-dimensional diagrams there is a single row
    and ``y_label`` is empty.
    """

    x_label: str
    x_values: List[float]
    y_label: str
    y_values: List[float]
    grid: List[List[str]] = field(default_factory=list)
    legend: Dict[str, str] = field(default_factory=dict)

    @property
    def n_plans(self) -> int:
        """Number of distinct optimal plans over the sampled grid."""
        return len(self.legend)

    def letter_at(self, col: int, row: int = 0) -> str:
        """Plan letter at a grid cell."""
        return self.grid[row][col]

    def render(self) -> str:
        """Multi-line ASCII rendering with axes and legend."""
        lines: List[str] = []
        is_2d = len(self.y_values) > 1
        y_width = max((len(_fmt_axis(v)) for v in self.y_values), default=0)
        for row_idx in range(len(self.grid) - 1, -1, -1):
            prefix = (
                f"{_fmt_axis(self.y_values[row_idx]):>{y_width}} | " if is_2d else ""
            )
            lines.append(prefix + "".join(self.grid[row_idx]))
        pad = " " * (y_width + 3) if is_2d else ""
        lines.append(pad + "-" * len(self.x_values))
        lo, hi = _fmt_axis(self.x_values[0]), _fmt_axis(self.x_values[-1])
        gap = max(1, len(self.x_values) - len(lo) - len(hi))
        lines.append(pad + lo + " " * gap + hi)
        lines.append(pad + f"({self.x_label})" + (f" x ({self.y_label})" if is_2d else ""))
        lines.append("")
        for letter, signature in self.legend.items():
            lines.append(f"  {letter} = {signature}")
        return "\n".join(lines)

    def __str__(self) -> str:
        return self.render()


def _fmt_axis(v: float) -> str:
    if v == 0:
        return "0"
    if abs(v) >= 1e5 or abs(v) < 1e-3:
        return f"{v:.0e}"
    if abs(v) >= 1000:
        return f"{v / 1000:g}k"
    return f"{v:g}"


def _geom_grid(lo: float, hi: float, n: int) -> List[float]:
    if not 0 < lo <= hi:
        raise ValueError("need 0 < lo <= hi")
    if n < 2:
        raise ValueError("need at least 2 grid points")
    step = (math.log(hi) - math.log(lo)) / (n - 1)
    return [math.exp(math.log(lo) + i * step) for i in range(n)]


def memory_plan_diagram(
    query: JoinQuery,
    memory_lo: float,
    memory_hi: float,
    width: int = 60,
    cost_model: Optional[CostModel] = None,
    plan_space="left-deep",
) -> PlanDiagram:
    """One-dimensional plan diagram over the memory axis (log-spaced).

    ``plan_space`` selects the search space per cell — a bushy diagram
    shows where tree shape (not just order) flips with memory.
    """
    cm = cost_model if cost_model is not None else CostModel(count_evaluations=False)
    xs = _geom_grid(memory_lo, memory_hi, width)
    diagram = PlanDiagram(
        x_label="memory pages, log scale",
        x_values=xs,
        y_label="",
        y_values=[0.0],
    )
    row: List[str] = []
    assignments: Dict[str, str] = {}
    for m in xs:
        plan = optimize_lsc(query, m, cost_model=cm, plan_space=plan_space).plan
        sig = plan.signature()
        if sig not in assignments:
            if len(assignments) >= len(_LETTERS):
                raise ValueError("too many distinct plans for the legend")
            assignments[sig] = _LETTERS[len(assignments)]
            diagram.legend[assignments[sig]] = sig
        row.append(assignments[sig])
    diagram.grid = [row]
    return diagram


def memory_selectivity_diagram(
    query: JoinQuery,
    predicate_label: str,
    memory_lo: float,
    memory_hi: float,
    selectivity_lo: float,
    selectivity_hi: float,
    width: int = 48,
    height: int = 14,
    cost_model: Optional[CostModel] = None,
    plan_space="left-deep",
) -> PlanDiagram:
    """Two-dimensional plan diagram over (memory, one selectivity).

    Both axes log-spaced; each cell runs the point optimizer with the
    predicate's selectivity pinned to the cell's value, searching
    ``plan_space``.
    """
    cm = cost_model if cost_model is not None else CostModel(count_evaluations=False)
    if not any(p.label == predicate_label for p in query.predicates):
        raise ValueError(f"no predicate labelled {predicate_label!r}")
    xs = _geom_grid(memory_lo, memory_hi, width)
    ys = _geom_grid(selectivity_lo, selectivity_hi, height)
    diagram = PlanDiagram(
        x_label="memory pages, log scale",
        x_values=xs,
        y_label=f"selectivity of {predicate_label}, log scale",
        y_values=ys,
    )
    assignments: Dict[str, str] = {}
    for sel in ys:
        pinned = _pin_selectivity(query, predicate_label, sel)
        row: List[str] = []
        for m in xs:
            plan = optimize_lsc(pinned, m, cost_model=cm, plan_space=plan_space).plan
            sig = plan.signature()
            if sig not in assignments:
                if len(assignments) >= len(_LETTERS):
                    raise ValueError("too many distinct plans for the legend")
                assignments[sig] = _LETTERS[len(assignments)]
                diagram.legend[assignments[sig]] = sig
            row.append(assignments[sig])
        diagram.grid.append(row)
    return diagram


def _pin_selectivity(
    query: JoinQuery, label: str, selectivity: float
) -> JoinQuery:
    preds = [
        JoinPredicate(
            left=p.left,
            right=p.right,
            selectivity=min(1.0, selectivity) if p.label == label else p.selectivity,
            label=p.label,
            equiv_class=p.equiv_class,
            result_pages_override=(
                None if p.label == label else p.result_pages_override
            ),
        )
        for p in query.predicates
    ]
    return JoinQuery(
        list(query.relations),
        preds,
        required_order=query.required_order,
        rows_per_page=query.rows_per_page,
        projection_ratio=getattr(query, "projection_ratio", 1.0),
    )
