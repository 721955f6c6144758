"""E15 — mid-execution re-optimization vs compile-time LEC ([KD98]).

For parameters that cannot be known even at start-up (true
selectivities), the paper surveys run-time strategies that monitor
execution and re-plan on surprise.  This experiment pits them against the
distributional compile-time approach:

* static — the LSC plan from point estimates, run to completion;
* adaptive — the same plan with [KD98]-style monitoring: when a
  materialised intermediate deviates from its estimate beyond a
  threshold, the remainder is re-planned with corrected statistics;
* Algorithm D — commits at compile time to the plan with least expected
  cost under the selectivity distributions (no run-time machinery).

Each trial draws a "true world" from the uncertainty model and executes
all three against it; memory is held at a known constant to isolate the
selectivity effect.
"""

from __future__ import annotations

from typing import List

import numpy as np

from ..core.distributions import point_mass
from ..costmodel.model import CostModel
from ..engine.simulator import realize_query
from ..optimizer import optimize_algorithm_d, optimize_lsc
from ..strategies.reoptimize import run_with_reoptimization
from ..workloads.queries import chain_query, with_selectivity_uncertainty
from .harness import ExperimentTable

__all__ = ["run"]


def run(quick: bool = False, seed: int = 0) -> List[ExperimentTable]:
    """Sweep selectivity-estimation error; compare the three strategies."""
    memory_value = 700.0
    n_queries = 3 if quick else 8
    n_worlds = 5 if quick else 20
    errors = [1.0, 6.0] if quick else [0.5, 2.0, 6.0, 12.0]

    table = ExperimentTable(
        experiment_id="E15",
        title="Realized cost under selectivity surprises "
        f"({n_queries} queries x {n_worlds} sampled worlds, memory fixed)",
        columns=[
            "rel_error",
            "static_vs_D",
            "adaptive_vs_D",
            "reopt_rate",
            "adaptive_beats_static_pct",
        ],
    )
    eval_cm = CostModel(count_evaluations=False)
    for err in errors:
        ratios_static: List[float] = []
        ratios_adaptive: List[float] = []
        reopts = 0
        trials = 0
        adaptive_wins = 0
        for qi in range(n_queries):
            est = chain_query(
                4,
                np.random.default_rng(seed + 10 * qi),
                min_pages=500,
                max_pages=200000,
            )
            lifted = with_selectivity_uncertainty(est, err, n_buckets=5)

            plan_static = optimize_lsc(est, memory_value).plan
            plan_d = optimize_algorithm_d(
                lifted, point_mass(memory_value), max_buckets=10
            ).plan
            rng = np.random.default_rng(seed + 1000 + qi)
            for _ in range(n_worlds):
                world = realize_query(lifted, rng)
                trace = [memory_value] * plan_static.n_joins
                static = run_with_reoptimization(
                    est, world, plan_static, trace, enabled=False
                )
                adaptive = run_with_reoptimization(
                    est, world, plan_static, trace,
                    enabled=True, deviation_threshold=2.0,
                )
                d_cost = eval_cm.plan_cost(plan_d, world, memory_value)
                ratios_static.append(static.realized_cost / d_cost)
                ratios_adaptive.append(adaptive.realized_cost / d_cost)
                reopts += adaptive.n_reoptimizations
                trials += 1
                if adaptive.realized_cost < static.realized_cost * (1 - 1e-9):
                    adaptive_wins += 1
        table.add(
            rel_error=err,
            static_vs_D=float(np.mean(ratios_static)),
            adaptive_vs_D=float(np.mean(ratios_adaptive)),
            reopt_rate=reopts / trials,
            adaptive_beats_static_pct=100.0 * adaptive_wins / trials,
        )
    table.notes = (
        "Re-optimization recovers part of the static plan's regret as "
        "surprises grow; compile-time Algorithm D remains competitive "
        "without any run-time machinery (ratios are vs its realized cost)."
    )
    return [table]


if __name__ == "__main__":
    for t in run():
        print(t)
