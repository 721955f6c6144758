"""E17 — ablation: modelling pipelined nested loops (Section 4).

The paper ignores pipelining but notes current optimizers model it and
"the same techniques can be applied to LEC optimization as well".  Here
the cost model optionally lets a nested-loop join stream its outer input
from the producing join without materialising it; the ablation measures
what the LEC optimizer gains from knowing that.

Both optimizers are scored under the *pipelining-aware* model (the
execution engine supports it either way); the blind optimizer simply
doesn't exploit it when choosing.
"""

from __future__ import annotations

from typing import List

import numpy as np

from ..core.distributions import discretized_lognormal
from ..costmodel.model import CostModel
from ..optimizer import optimize_algorithm_c
from ..plans.properties import JoinMethod
from ..workloads.queries import chain_query
from .harness import ExperimentTable

__all__ = ["run"]


def run(quick: bool = False, seed: int = 0) -> List[ExperimentTable]:
    """Compare LEC with and without pipelining knowledge."""
    n_queries = 6 if quick else 16
    sizes = [3, 4]
    # Memory often large enough for the in-memory NL regime — the setting
    # where streaming the outer input is the deciding margin.
    memory = discretized_lognormal(
        25_000.0, 0.8, n_buckets=6, rng=np.random.default_rng(seed)
    )
    table = ExperimentTable(
        experiment_id="E17",
        title="Pipelining ablation: value of the execution feature vs "
        "value of the optimizer knowing about it",
        columns=[
            "n_relations",
            "feature_saving_pct",
            "awareness_saving_pct",
            "plans_differ",
        ],
    )
    eval_pipe = CostModel(
        count_evaluations=False, pipelined_methods=[JoinMethod.NESTED_LOOP]
    )
    eval_plain = CostModel(count_evaluations=False)
    for n in sizes:
        feature = []
        awareness = []
        differ = 0
        for i in range(n_queries):
            q = chain_query(
                n,
                np.random.default_rng(seed + 100 * i + n),
                min_pages=50,
                max_pages=20_000,
            )
            blind = optimize_algorithm_c(q, memory, cost_model=CostModel())
            aware = optimize_algorithm_c(
                q,
                memory,
                cost_model=CostModel(pipelined_methods=[JoinMethod.NESTED_LOOP]),
            )
            # Feature value: best plan on a pipelining engine vs best plan
            # on a materialise-everything engine (each under its own
            # runtime).
            e_plain = eval_plain.plan_expected_cost(blind.plan, q, memory)
            e_pipe_aware = eval_pipe.plan_expected_cost(aware.plan, q, memory)
            feature.append(1.0 - e_pipe_aware / e_plain)
            # Awareness value: both executed on the pipelining engine, but
            # the blind optimizer chose without modelling it.
            e_pipe_blind = eval_pipe.plan_expected_cost(blind.plan, q, memory)
            awareness.append(1.0 - e_pipe_aware / e_pipe_blind)
            if blind.plan != aware.plan:
                differ += 1
        table.add(
            n_relations=n,
            feature_saving_pct=100.0 * float(np.mean(feature)),
            awareness_saving_pct=100.0 * float(np.mean(awareness)),
            plans_differ=differ / n_queries,
        )
    table.notes = (
        "The execution feature itself saves the intermediate-"
        "materialisation writes; explicit optimizer awareness adds little "
        "here because nested-loop cascades already win the in-memory "
        "regime on cost — the awareness margin only appears when the "
        "skipped write flips a method choice."
    )
    return [table]


if __name__ == "__main__":
    for t in run():
        print(t)
