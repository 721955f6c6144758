"""Compile-time vs start-up-time vs run-time: the whole strategy zoo.

Walks the paper's Section 2.3 taxonomy on the motivating example:

1. classical compile-time LSC;
2. compile-time LEC (Algorithm C);
3. optimize-at-start-up (re-run the optimizer when memory is known);
4. parametric plans / choice nodes (precompute per-region winners,
   start-up does a lookup);
5. mid-execution re-optimization when intermediate sizes surprise.

Run:  python examples/startup_strategies.py
"""

import numpy as np

from repro import CostModel, lsc_at_mean, optimize_algorithm_c, optimize_lsc
from repro.engine.simulator import realize_query
from repro.strategies import (
    build_choice_plan,
    parametric_optimize,
    run_with_reoptimization,
)
from repro.workloads import chain_query, example_1_1
from repro.workloads.queries import with_selectivity_uncertainty


def memory_strategies() -> None:
    query, memory = example_1_1()
    eval_cm = CostModel(count_evaluations=False)

    lsc = lsc_at_mean(query, memory)
    lec = optimize_algorithm_c(query, memory)
    pset = parametric_optimize(query, 100.0, 5000.0)
    choice = build_choice_plan(query, 100.0, 5000.0)

    print("— uncertain memory (Example 1.1) —")
    rows = [
        ("LSC @ mean (compile)", eval_cm.plan_expected_cost(lsc.plan, query, memory)),
        ("LEC Algorithm C (compile)", lec.objective),
        ("parametric lookup (start-up)",
         pset.expected_cost_with_lookup(query, memory, cost_model=eval_cm)),
        ("choice plan (start-up)",
         choice.expected_cost(query, memory, cost_model=eval_cm)),
    ]
    for name, cost in rows:
        print(f"  {name:<32}{cost:>14,.0f} expected page I/Os")
    print(f"  parametric regions: {pset.n_regions}, "
          f"stored nodes {pset.stored_nodes()} vs LEC's "
          f"{len(list(lec.plan.nodes()))}\n")


def selectivity_strategies() -> None:
    from repro.core import point_mass
    from repro.optimizer import optimize_algorithm_d

    print("— uncertain selectivities (run-time strategies) —")
    rng = np.random.default_rng(4)
    est = chain_query(4, np.random.default_rng(42), min_pages=500, max_pages=200000)
    lifted = with_selectivity_uncertainty(est, 8.0, n_buckets=5)
    plan = optimize_lsc(est, 700.0).plan
    plan_d = optimize_algorithm_d(lifted, point_mass(700.0), max_buckets=10).plan
    eval_cm = CostModel(count_evaluations=False)
    static_total, adaptive_total, d_total, reopts = 0.0, 0.0, 0.0, 0
    n_worlds = 30
    for _ in range(n_worlds):
        world = realize_query(lifted, rng)
        trace = [700.0] * plan.n_joins
        static = run_with_reoptimization(est, world, plan, trace, enabled=False)
        adaptive = run_with_reoptimization(
            est, world, plan, trace, enabled=True, deviation_threshold=2.0
        )
        static_total += static.realized_cost
        adaptive_total += adaptive.realized_cost
        d_total += eval_cm.plan_cost(plan_d, world, 700.0)
        reopts += adaptive.n_reoptimizations
    print(f"  static LSC plan, mean realized cost: {static_total / n_worlds:>14,.0f}")
    print(f"  with re-optimization ([KD98]):       {adaptive_total / n_worlds:>14,.0f}")
    print(f"  compile-time Algorithm D:            {d_total / n_worlds:>14,.0f}")
    print(f"  re-optimizations per execution:      {reopts / n_worlds:>14.2f}")
    print(
        "  (re-optimization replans with the *remaining* estimates, which\n"
        "  are still wrong in this world — it can overcorrect.  Algorithm D\n"
        "  plans for the whole distribution once, with no run-time cost.)"
    )


if __name__ == "__main__":
    memory_strategies()
    selectivity_strategies()
