"""E22 — SPJU blocks: the ladder on union plans, and C10 on the wider space.

Two checks on select-project-join-union queries (the ``"spju"`` space):

1. **Ladder on unions.** Each union arm is an independent DP; the block
   objective adds the union overhead.  Algorithms A/B/C should land in
   the same order as on single blocks, with C matching exhaustive
   enumeration of the full SPJU space.
2. **C10 coincidence.** The paper's closing observation: when the cost
   function is effectively linear over the parameter's support (here:
   every memory bucket on the same side of every formula breakpoint),
   LEC ≡ LSC-at-the-mean.  A distribution straddling breakpoints breaks
   the coincidence.  E10 showed this for single join blocks; this table
   re-verifies it per regime on SPJU plans, where the union overhead
   (a linear term) must not re-introduce divergence on its own.
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
from ..workloads.queries import union_query
from .harness import ExperimentTable

__all__ = ["run"]

#: Every bucket far above any build-side size (the generator caps
#: intermediates at ~1.5× the larger input, so < 1e6 pages here) → all
#: formulas in their in-memory regime; no breakpoint inside the support.
_NARROW = DiscreteDistribution(
    [2.0e6, 2.4e6, 3.0e6], [0.3, 0.4, 0.3]
)
#: Support straddling the hash/sort-merge breakpoints.
_STRADDLING = DiscreteDistribution(
    [200.0, 600.0, 1200.0, 2500.0, 6000.0], [0.15, 0.25, 0.25, 0.2, 0.15]
)


def _make_queries(n_queries: int, rng) -> List[object]:
    out = []
    for i in range(n_queries):
        out.append(
            union_query(
                2,
                3,
                rng,
                distinct=(i % 2 == 1),
                projection_ratios=[1.0, 0.4] if i % 3 == 0 else None,
                min_pages=300,
                max_pages=300000,
                rows_per_page=100,
            )
        )
    return out


def run(quick: bool = False, seed: int = 0) -> List[ExperimentTable]:
    """Ladder regret on SPJU blocks; LEC/LSC coincidence per regime."""
    rng = np.random.default_rng(seed)
    n_queries = 4 if quick else 12
    queries = _make_queries(n_queries, rng)

    algos: Dict[str, Callable] = {
        "LSC @ mean": lambda q, cm, mem: lsc_at_mean(
            q, mem, cost_model=cm, plan_space="spju"
        ),
        "Algorithm A": lambda q, cm, mem: optimize_algorithm_a(
            q, mem, cost_model=cm, plan_space="spju"
        ),
        "Algorithm B (c=2)": lambda q, cm, mem: optimize_algorithm_b(
            q, mem, c=2, cost_model=cm, plan_space="spju"
        ),
        "Algorithm C": lambda q, cm, mem: optimize_algorithm_c(
            q, mem, cost_model=cm, plan_space="spju"
        ),
    }

    regret = {name: [] for name in algos}
    optimal = {name: 0 for name in algos}
    eval_cm = CostModel(count_evaluations=False)
    for query in queries:
        truth, _ = exhaustive_best(
            query,
            lambda p: eval_cm.plan_expected_cost(p, query, _STRADDLING),
            DEFAULT_METHODS,
            space="spju",
        )
        for name, algo in algos.items():
            res = algo(query, CostModel(), _STRADDLING)
            e_plan = eval_cm.plan_expected_cost(res.plan, query, _STRADDLING)
            regret[name].append(e_plan / truth.objective - 1.0)
            if e_plan <= truth.objective * (1 + 1e-9):
                optimal[name] += 1

    ladder = ExperimentTable(
        experiment_id="E22",
        title=f"C3 ladder on {n_queries} SPJU blocks (2 arms × 3 relations, "
        "mixed ALL/DISTINCT, straddling memory)",
        columns=["algorithm", "mean_regret_pct", "max_regret_pct",
                 "frac_optimal"],
    )
    for name in algos:
        ladder.add(
            algorithm=name,
            mean_regret_pct=100.0 * float(np.mean(regret[name])),
            max_regret_pct=100.0 * float(np.max(regret[name])),
            frac_optimal=optimal[name] / n_queries,
        )
    ladder.notes = (
        "Algorithm C stays exactly optimal over the SPJU space: per-arm "
        "DPs plus the union overhead preserve the optimal-substructure "
        "argument."
    )

    coincidence = ExperimentTable(
        experiment_id="E22",
        title="C10 on SPJU: LEC vs LSC-at-the-mean per memory regime",
        columns=["regime", "frac_coincide", "mean_lsc_excess_pct",
                 "max_lsc_excess_pct"],
    )
    for regime, mem in [("linear (narrow)", _NARROW),
                        ("straddling", _STRADDLING)]:
        same = 0
        excess: List[float] = []
        for query in queries:
            lec = optimize_algorithm_c(
                query, mem, cost_model=CostModel(count_evaluations=False),
                plan_space="spju",
            )
            lsc = lsc_at_mean(
                query, mem, cost_model=CostModel(count_evaluations=False),
                plan_space="spju",
            )
            if lec.plan.signature() == lsc.plan.signature():
                same += 1
            e_lec = eval_cm.plan_expected_cost(lec.plan, query, mem)
            e_lsc = eval_cm.plan_expected_cost(lsc.plan, query, mem)
            excess.append(100.0 * (e_lsc / e_lec - 1.0))
        coincidence.add(
            regime=regime,
            frac_coincide=same / n_queries,
            mean_lsc_excess_pct=float(np.mean(excess)),
            max_lsc_excess_pct=float(np.max(excess)),
        )
    coincidence.notes = (
        "With no breakpoint inside the support the two objectives pick "
        "the same SPJU plan (C10); once the support straddles "
        "breakpoints, LSC pays a strictly positive expected-cost excess "
        "on some blocks."
    )
    return [ladder, coincidence]


if __name__ == "__main__":
    for t in run():
        print(t)
