"""Algorithm D end-to-end: selectivities estimated by sampling, with
honest uncertainty.

Builds a synthetic database, estimates a predicate's selectivity by
sampling rows ([SBM93]-style), converts the sampling result into a Beta
posterior distribution, and feeds the *distribution* — not just the point
estimate — into the multi-parameter LEC optimizer (Algorithm D).

Run:  python examples/uncertain_selectivities.py
"""

import numpy as np

from repro import CostModel, last_context, optimize, plan_expected_cost_multiparam
from repro.catalog import estimate_selectivity, selectivity_posterior
from repro.core.distributions import DiscreteDistribution
from repro.plans.query import JoinPredicate, JoinQuery, RelationSpec
from repro.workloads import ColumnSpec, build_database


def main() -> None:
    rng = np.random.default_rng(11)
    catalog, stats, storage = build_database(
        {
            "events": (
                100_000,
                [ColumnSpec("id", "serial"), ColumnSpec("user", "zipf", domain=2_000, skew=1.4)],
            ),
            "users": (2_000, [ColumnSpec("id", "serial"), ColumnSpec("grp", "uniform", domain=40)]),
            "groups": (40, [ColumnSpec("id", "serial")]),
        },
        rng,
        rows_per_page=50,
    )

    # Sample how selective the events filter ("hot users only") really is.
    events_users = np.asarray(
        [row[1] for page in storage.get("events").pages for row in page.rows]
    )
    probe = estimate_selectivity(
        events_users, lambda v: v < 20, sample_size=300, rng=rng
    )
    posterior = selectivity_posterior(probe, n_buckets=7)
    print(
        f"sampled {probe.n_sampled} rows (cost {probe.cost_pages:.0f} page I/Os): "
        f"point estimate {probe.point_estimate:.4f}, "
        f"posterior mean {posterior.mean():.4f} ± {posterior.std():.4f}"
    )

    # The filtered events relation has an *uncertain size*: its page count
    # is the base size scaled by the sampled selectivity posterior.  That
    # distribution, times the join selectivities, is exactly what
    # Algorithm D consumes.
    base_pages = float(stats.pages("events"))
    filtered_pages = posterior.scale(base_pages).clip(lo=1.0)
    print(
        f"filtered events size: {filtered_pages.mean():,.0f} pages expected, "
        f"support [{filtered_pages.min():,.0f}, {filtered_pages.max():,.0f}]\n"
    )
    query = JoinQuery(
        relations=[
            RelationSpec(
                "events",
                pages=filtered_pages.mean(),
                pages_dist=filtered_pages,
            ),
            RelationSpec("users", pages=float(stats.pages("users"))),
            RelationSpec("groups", pages=float(stats.pages("groups"))),
        ],
        predicates=[
            JoinPredicate("events", "users", selectivity=1 / 2_000, label="e=u"),
            JoinPredicate("users", "groups", selectivity=1 / 40, label="u=g"),
        ],
        rows_per_page=50,
    )
    memory = DiscreteDistribution([12.0, 25.0, 300.0], [0.35, 0.35, 0.30])

    lsc = optimize(query, "point", memory=memory)
    lec_d = optimize(query, "multiparam", memory=memory, max_buckets=12)
    context = last_context()  # reuse Algorithm D's size distributions

    def score(plan) -> float:
        return plan_expected_cost_multiparam(
            plan, query, memory, max_buckets=12, context=context
        )

    print("Classical plan:  ", lsc.plan.signature())
    print("Algorithm D plan:", lec_d.plan.signature())
    e_lsc, e_d = score(lsc.plan), score(lec_d.plan)
    print(f"E[cost] classical:   {e_lsc:>14,.0f}")
    print(f"E[cost] Algorithm D: {e_d:>14,.0f}  ({e_lsc / e_d:.2f}x cheaper)")


if __name__ == "__main__":
    main()
