"""E13 — the Section 2.3 strategy taxonomy, measured.

Compares every start-up-time strategy the paper surveys against the
compile-time choices, on the motivating example's query, along the three
axes the paper discusses: expected execution cost, optimization effort
(where it is paid), and stored plan size.

* LSC @ mean — classical compile-time point optimization;
* LEC (Algorithm C) — compile-time, distribution-aware, single plan;
* optimize-at-start-up — re-run the LSC optimizer when memory is known
  (the "trivial strategy", paid on *every* execution);
* parametric / choice-node plan — all regions precomputed at compile
  time, start-up does a lookup ([INSS92]/[GC94]).

Start-up strategies assume memory is *exactly* known at start-up and
constant during execution — their best case.  LEC needs neither
assumption yet gets most of the benefit.
"""

from __future__ import annotations

from typing import List

from ..costmodel.model import CostModel
from ..optimizer import lsc_at_mean, optimize_algorithm_c, optimize_lsc
from ..strategies.choice_nodes import build_choice_plan
from ..strategies.parametric import parametric_optimize
from ..workloads.scenarios import example_1_1
from .harness import ExperimentTable

__all__ = ["run"]


def run(quick: bool = False, seed: int = 0) -> List[ExperimentTable]:
    """Tabulate cost / effort / plan size per strategy."""
    query, memory = example_1_1()
    eval_cm = CostModel(count_evaluations=False)

    # Compile-time strategies.
    lsc_cm = CostModel()
    lsc = lsc_at_mean(query, memory, cost_model=lsc_cm)
    lec_cm = CostModel()
    lec = optimize_algorithm_c(query, memory, cost_model=lec_cm)

    # Start-up strategies (memory exactly known per execution).
    param_cm = CostModel()
    pset = parametric_optimize(query, 100.0, 5000.0, cost_model=param_cm)
    choice = build_choice_plan(query, 100.0, 5000.0, cost_model=CostModel())
    startup_cost = pset.expected_cost_with_lookup(query, memory, cost_model=eval_cm)

    table = ExperimentTable(
        experiment_id="E13",
        title="Strategy taxonomy on Example 1.1 "
        "(start-up rows assume memory known exactly at start-up)",
        columns=[
            "strategy",
            "E_cost",
            "compile_evals",
            "per_execution_evals",
            "stored_plan_nodes",
        ],
    )
    lsc_nodes = len(list(lsc.plan.nodes()))
    lec_nodes = len(list(lec.plan.nodes()))
    table.add(
        strategy="LSC @ mean (compile-time)",
        E_cost=eval_cm.plan_expected_cost(lsc.plan, query, memory),
        compile_evals=lsc_cm.eval_count,
        per_execution_evals=0,
        stored_plan_nodes=lsc_nodes,
    )
    table.add(
        strategy="LEC Algorithm C (compile-time)",
        E_cost=lec.objective,
        compile_evals=lec_cm.eval_count,
        per_execution_evals=0,
        stored_plan_nodes=lec_nodes,
    )
    # Optimize-at-start-up pays one full optimization per execution.
    per_exec_cm = CostModel()
    optimize_lsc(query, memory.mode(), cost_model=per_exec_cm)
    table.add(
        strategy="optimize at start-up",
        E_cost=startup_cost,
        compile_evals=0,
        per_execution_evals=per_exec_cm.eval_count,
        stored_plan_nodes=0,
    )
    table.add(
        strategy="parametric / choice plan",
        E_cost=choice.expected_cost(query, memory, cost_model=eval_cm),
        compile_evals=param_cm.eval_count,
        per_execution_evals=0,
        stored_plan_nodes=choice.stored_nodes(),
    )
    gap = (
        eval_cm.plan_expected_cost(lsc.plan, query, memory) - lec.objective
    ) / max(lec.objective - startup_cost, 1e-9)
    table.notes = (
        "LEC closes most of the LSC-to-startup-knowledge gap "
        f"({gap:.0f}x more saving than perfect start-up info adds on top) "
        "while shipping a single plan and paying only compile-time effort."
    )
    return [table]


if __name__ == "__main__":
    for t in run():
        print(t)
