"""E6 — multiple uncertain parameters (claim C6, Algorithm D).

Selectivity estimates are "notoriously uncertain"; this experiment widens
the (mean-preserving) uncertainty around every predicate's selectivity
and compares three optimizers under the full multi-parameter objective:

* LSC at the mean memory and point selectivities;
* Algorithm C — distributional memory but point sizes/selectivities;
* Algorithm D — everything distributional.

Since the injected uncertainty is mean-preserving, point estimates stay
"right on average"; any gap is pure *Jensen effect* through the
discontinuous cost formulas.
"""

from __future__ import annotations

from typing import List

import numpy as np

from ..core import plan_expected_cost_multiparam
from ..core.distributions import DiscreteDistribution
from ..costmodel import CostModel
from ..optimizer.facade import last_context, optimize
from ..workloads.queries import star_query, with_selectivity_uncertainty
from .harness import ExperimentTable

__all__ = ["run"]


def run(quick: bool = False, seed: int = 0) -> List[ExperimentTable]:
    """Sweep selectivity uncertainty; compare LSC / C / D."""
    rng = np.random.default_rng(seed)
    base = star_query(4, rng, min_pages=500, max_pages=200000, require_order=True)
    memory = DiscreteDistribution([400.0, 1500.0, 4000.0], [0.25, 0.5, 0.25])
    errors = [0.0, 1.0, 4.0] if quick else [0.0, 0.5, 1.0, 2.0, 4.0, 8.0]
    max_buckets = 8 if quick else 12

    table = ExperimentTable(
        experiment_id="E6",
        title="Selectivity uncertainty (4-relation star): expected cost "
        "under the multi-parameter objective",
        columns=[
            "rel_error",
            "E_lsc",
            "E_algoC",
            "E_algoD",
            "lsc_vs_D",
            "C_vs_D",
        ],
    )
    for err in errors:
        query = with_selectivity_uncertainty(base, err, n_buckets=5)
        cm = CostModel()
        lsc = optimize(query, "point", memory=memory.mean(), cost_model=cm)
        algc = optimize(query, "lec", memory=memory, cost_model=cm)
        algd = optimize(
            query,
            "multiparam",
            memory=memory,
            cost_model=cm,
            max_buckets=max_buckets,
        )
        # Score arbitrary plans against Algorithm D's own context so the
        # size distributions built during its DP are reused, not rebuilt.
        context = last_context()

        def score(plan):
            return plan_expected_cost_multiparam(
                plan, query, memory, max_buckets=max_buckets, context=context,
            )

        e_lsc, e_c, e_d = score(lsc.plan), score(algc.plan), score(algd.plan)
        table.add(
            rel_error=err,
            E_lsc=e_lsc,
            E_algoC=e_c,
            E_algoD=e_d,
            lsc_vs_D=e_lsc / e_d,
            C_vs_D=e_c / e_d,
        )
    table.notes = (
        "Algorithm D never loses under its own objective; gaps open as "
        "selectivity uncertainty widens the result-size distributions."
    )
    return [table]


if __name__ == "__main__":
    for t in run():
        print(t)
