"""E3 — the Algorithm A / B / C quality ladder (claim C3).

For a batch of random queries, compares every algorithm's chosen plan
against the *true* LEC left-deep plan (exhaustive enumeration): regret in
expected cost and the fraction of queries where the choice is exactly
optimal.  The expected ordering: LSC ≥ A ≥ B ≥ C, with C always at zero
regret (Theorem 3.3).
"""

from __future__ import annotations

from typing import Callable, Dict, List

import numpy as np

from ..core.distributions import DiscreteDistribution
from ..costmodel import CostModel, DEFAULT_METHODS
from ..optimizer import (
    exhaustive_best,
    lsc_at_mean,
    optimize_algorithm_a,
    optimize_algorithm_b,
    optimize_algorithm_c,
)
from ..workloads.queries import random_query
from .harness import ExperimentTable

__all__ = ["run"]


def run(quick: bool = False, seed: int = 0) -> List[ExperimentTable]:
    """Measure per-algorithm regret vs the exhaustive LEC optimum."""
    rng = np.random.default_rng(seed)
    n_queries = 6 if quick else 20
    memory = DiscreteDistribution(
        [200.0, 600.0, 1200.0, 2500.0, 6000.0], [0.15, 0.25, 0.25, 0.2, 0.15]
    )

    algos: Dict[str, Callable] = {
        "LSC @ mean": lambda q, cm: lsc_at_mean(q, memory, cost_model=cm),
        "Algorithm A": lambda q, cm: optimize_algorithm_a(q, memory, cost_model=cm),
        "Algorithm B (c=2)": lambda q, cm: optimize_algorithm_b(
            q, memory, c=2, cost_model=cm
        ),
        "Algorithm B (c=4)": lambda q, cm: optimize_algorithm_b(
            q, memory, c=4, cost_model=cm
        ),
        "Algorithm C": lambda q, cm: optimize_algorithm_c(q, memory, cost_model=cm),
    }
    regret: Dict[str, List[float]] = {name: [] for name in algos}
    optimal: Dict[str, int] = {name: 0 for name in algos}
    evals: Dict[str, List[int]] = {name: [] for name in algos}

    for i in range(n_queries):
        n = 4 + (i % 2)
        query = random_query(
            n, rng, min_pages=300, max_pages=300000, rows_per_page=100
        )
        eval_cm = CostModel(count_evaluations=False)
        truth, _ = exhaustive_best(
            query,
            lambda p: eval_cm.plan_expected_cost(p, query, memory),
            DEFAULT_METHODS,
        )
        for name, algo in algos.items():
            cm = CostModel()
            res = algo(query, cm)
            e_plan = eval_cm.plan_expected_cost(res.plan, query, memory)
            regret[name].append(e_plan / truth.objective - 1.0)
            if e_plan <= truth.objective * (1 + 1e-9):
                optimal[name] += 1
            evals[name].append(cm.eval_count)

    table = ExperimentTable(
        experiment_id="E3",
        title=f"Plan quality vs true LEC over {n_queries} random queries "
        f"(b={memory.n_buckets} buckets)",
        columns=["algorithm", "mean_regret_pct", "max_regret_pct", "frac_optimal", "avg_formula_evals"],
    )
    for name in algos:
        table.add(
            algorithm=name,
            mean_regret_pct=100.0 * float(np.mean(regret[name])),
            max_regret_pct=100.0 * float(np.max(regret[name])),
            frac_optimal=optimal[name] / n_queries,
            avg_formula_evals=float(np.mean(evals[name])),
        )
    table.notes = (
        "Regret shrinks down the ladder; Algorithm C is exactly optimal "
        "on every query (Theorem 3.3)."
    )
    return [table]


if __name__ == "__main__":
    for t in run():
        print(t)
