"""Deciding when sampling pays off ([SBM93]-style, Section 2.3).

[SBM93] — the prior work the paper calls "closest to that advocated here"
— uses decision-theoretic methods to pre-compute when reducing a
selectivity's uncertainty by sampling is worth the sampling cost.  With
selectivities as first-class distributions, that computation is the
classic *expected value of sample information* (EVSI):

* without sampling: commit to the LEC plan under the current prior;
  expected cost ``C0``.
* with a sample of ``n`` rows: the number of matches ``k`` follows the
  prior-predictive distribution; for each outcome the posterior sharpens,
  the optimizer may pick a different plan, and the expected cost under
  that posterior applies.  Weighting by ``Pr(k)`` and adding the probe's
  page I/Os gives the with-sampling expected cost ``C(n)``.
* sample iff ``C(n) + probe_cost < C0``; EVSI = ``C0 − C(n)``.

Everything reuses Algorithm D for plan choice, so the decision is
consistent with how the plan will actually be costed.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Optional, Tuple

import numpy as np

from ..core.distributions import DiscreteDistribution
from ..costmodel.model import CostModel
from ..optimizer import optimize_algorithm_d
from ..plans.query import JoinPredicate, JoinQuery

__all__ = ["SamplingDecision", "posterior_given_outcome", "evaluate_sampling"]


@dataclass(frozen=True)
class SamplingDecision:
    """EVSI analysis for one candidate sample size."""

    sample_size: int
    cost_without: float
    cost_with: float  # expected plan cost after sampling (excl. probe)
    probe_cost: float
    evsi: float

    @property
    def net_benefit(self) -> float:
        """Expected saving minus the probe's cost."""
        return self.evsi - self.probe_cost

    @property
    def worthwhile(self) -> bool:
        """True when sampling is expected to pay for itself."""
        return self.net_benefit > 0


def _log_binom_pmf(k: int, n: int, p: float) -> float:
    if p <= 0.0:
        return 0.0 if k > 0 else 1.0
    if p >= 1.0:
        return 0.0 if k < n else 1.0
    log_pmf = (
        math.lgamma(n + 1)
        - math.lgamma(k + 1)
        - math.lgamma(n - k + 1)
        + k * math.log(p)
        + (n - k) * math.log(1.0 - p)
    )
    return math.exp(log_pmf)


def posterior_given_outcome(
    prior: DiscreteDistribution,
    n: int,
    k: int,
    match_prob: Optional[Callable[[float], float]] = None,
) -> Tuple[DiscreteDistribution, float]:
    """Bayes update of a discrete selectivity prior on ``k``-of-``n``.

    ``match_prob`` maps a selectivity support point to the probability
    that one *sampled row* matches the probe predicate.  It defaults to
    the identity (sampling the selectivity directly, appropriate for
    filter predicates); join selectivities — per row *pair* — are usually
    observed through a correlated row-level property, e.g.
    ``match_prob = lambda s: min(1, s / base_selectivity * base_rate)``.

    Returns ``(posterior, Pr(outcome))``; the prior-predictive probability
    is the normalising constant.
    """
    if not 0 <= k <= n:
        raise ValueError("need 0 <= k <= n")
    mp = match_prob if match_prob is not None else (lambda s: s)
    likelihoods = np.array(
        [_log_binom_pmf(k, n, min(1.0, max(0.0, mp(float(s))))) for s in prior.values]
    )
    joint = prior.probs * likelihoods
    evidence = float(joint.sum())
    if evidence <= 0.0:
        raise ValueError("outcome has zero probability under the prior")
    return DiscreteDistribution(prior.values, joint / evidence), evidence


def evaluate_sampling(
    query: JoinQuery,
    predicate_label: str,
    memory: DiscreteDistribution,
    sample_size: int,
    probe_cost_pages: float,
    cost_model: Optional[CostModel] = None,
    max_buckets: int = 12,
    match_prob: Optional[Callable[[float], float]] = None,
) -> SamplingDecision:
    """Full EVSI analysis for sampling one predicate's selectivity.

    ``probe_cost_pages`` is the page-I/O price of the probe (e.g. one
    page per sampled row, capped at the relation size — see
    :func:`repro.catalog.sampling.estimate_selectivity`).
    ``match_prob`` maps selectivity support points to per-sampled-row
    match probabilities (see :func:`posterior_given_outcome`).
    """
    if sample_size < 1:
        raise ValueError("sample_size must be >= 1")
    cm = cost_model if cost_model is not None else CostModel()
    target = next(
        (p for p in query.predicates if p.label == predicate_label), None
    )
    if target is None:
        raise ValueError(f"no predicate labelled {predicate_label!r}")
    prior = target.selectivity_distribution()
    if prior.is_point_mass():
        raise ValueError(
            "the predicate's selectivity is already certain; nothing to learn"
        )

    def optimize_under(dist: DiscreteDistribution) -> float:
        q = _with_predicate_dist(query, predicate_label, dist)
        res = optimize_algorithm_d(
            q, memory, cost_model=cm, max_buckets=max_buckets
        )
        return res.objective

    cost_without = optimize_under(prior)

    cost_with = 0.0
    total_evidence = 0.0
    for k in range(sample_size + 1):
        posterior, evidence = _safe_posterior(prior, sample_size, k, match_prob)
        if evidence <= 0.0:
            continue
        cost_with += evidence * optimize_under(posterior)
        total_evidence += evidence
    # Guard against mass lost to numerics.
    cost_with /= max(total_evidence, 1e-12)

    return SamplingDecision(
        sample_size=sample_size,
        cost_without=cost_without,
        cost_with=cost_with,
        probe_cost=probe_cost_pages,
        evsi=cost_without - cost_with,
    )


def _safe_posterior(prior, n, k, match_prob=None):
    try:
        return posterior_given_outcome(prior, n, k, match_prob=match_prob)
    except ValueError:
        return prior, 0.0


def _with_predicate_dist(
    query: JoinQuery, label: str, dist: DiscreteDistribution
) -> JoinQuery:
    preds = [
        JoinPredicate(
            left=p.left,
            right=p.right,
            selectivity=dist.mean() if p.label == label else p.selectivity,
            label=p.label,
            selectivity_dist=dist if p.label == label else p.selectivity_dist,
            result_pages_override=p.result_pages_override,
        )
        for p in query.predicates
    ]
    return JoinQuery(
        list(query.relations),
        preds,
        required_order=query.required_order,
        rows_per_page=query.rows_per_page,
    )
