"""Selectivity estimation by sampling, and its uncertainty quantification.

[SBM93] (cited by the paper as the closest prior work) reduces selectivity
uncertainty by sampling at a cost.  We provide the sampling estimator
itself plus the piece the LEC framework actually needs: a *posterior
distribution* over the true selectivity given a sample, so that sampled
estimates slot into Algorithm D as first-class distributional inputs, with
tighter spreads for larger samples.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from ..core.distributions import DiscreteDistribution

__all__ = ["SampleEstimate", "estimate_selectivity", "selectivity_posterior"]


@dataclass(frozen=True)
class SampleEstimate:
    """Result of a sampling probe.

    Attributes
    ----------
    n_sampled:
        Number of rows examined.
    n_matched:
        Rows satisfying the predicate.
    cost_pages:
        Page I/Os charged for the probe (sampling is not free — this is
        the cost [SBM93] trades off against plan improvement).
    """

    n_sampled: int
    n_matched: int
    cost_pages: float

    @property
    def point_estimate(self) -> float:
        """The maximum-likelihood selectivity estimate."""
        if self.n_sampled == 0:
            return 0.0
        return self.n_matched / self.n_sampled


def estimate_selectivity(
    values: Sequence[float],
    predicate: Callable[[float], bool],
    sample_size: int,
    rng: np.random.Generator,
    rows_per_page: int = 100,
) -> SampleEstimate:
    """Sample ``sample_size`` rows and count predicate matches.

    The charged cost assumes each sampled row touches a distinct page in
    the worst case, capped at the full relation size.
    """
    if sample_size <= 0:
        raise ValueError("sample_size must be positive")
    arr = np.asarray(values, dtype=float)
    if arr.size == 0:
        return SampleEstimate(0, 0, 0.0)
    n = min(sample_size, arr.size)
    picks = rng.choice(arr, size=n, replace=False)
    matched = int(sum(1 for v in picks if predicate(float(v))))
    n_pages = max(1, -(-arr.size // rows_per_page))
    cost = float(min(n, n_pages))
    return SampleEstimate(n_sampled=n, n_matched=matched, cost_pages=cost)


def selectivity_posterior(
    estimate: SampleEstimate,
    n_buckets: int = 7,
    prior_alpha: float = 1.0,
    prior_beta: float = 1.0,
) -> DiscreteDistribution:
    """Beta posterior over the true selectivity, discretised into buckets.

    With a Beta(alpha, beta) prior and ``k`` matches out of ``n``, the
    posterior is Beta(alpha + k, beta + n - k).  We discretise it with
    equal-probability buckets whose representatives are the conditional
    means, so the posterior mean is preserved exactly.
    """
    if n_buckets < 1:
        raise ValueError("n_buckets must be >= 1")
    a = prior_alpha + estimate.n_matched
    b = prior_beta + estimate.n_sampled - estimate.n_matched
    if a <= 0 or b <= 0:
        raise ValueError("posterior parameters must be positive")
    mean = a / (a + b)
    if n_buckets == 1:
        return DiscreteDistribution([mean], [1.0])
    # Equal-probability slices via a dense grid of the Beta pdf; no scipy
    # required and accuracy is ample for bucket placement.
    grid = np.linspace(1e-9, 1.0 - 1e-9, 4001)
    log_pdf = (a - 1.0) * np.log(grid) + (b - 1.0) * np.log1p(-grid)
    pdf = np.exp(log_pdf - log_pdf.max())
    cdf = np.cumsum(pdf)
    cdf /= cdf[-1]
    reps = []
    probs = []
    prev_q = 0.0
    prev_idx = 0
    for k in range(1, n_buckets + 1):
        q = k / n_buckets
        idx = int(np.searchsorted(cdf, q, side="left"))
        idx = min(max(idx, prev_idx + 1), grid.size - 1)
        chunk_pdf = pdf[prev_idx : idx + 1]
        chunk_vals = grid[prev_idx : idx + 1]
        mass = float(chunk_pdf.sum())
        if mass > 0:
            reps.append(float(np.dot(chunk_vals, chunk_pdf) / mass))
            probs.append(q - prev_q)
        prev_q = q
        prev_idx = idx
    total = sum(probs)
    probs = [p / total for p in probs]
    dist = DiscreteDistribution(reps, probs)
    # Recenter so the discretised mean matches the analytic posterior mean.
    shift = mean - dist.mean()
    return dist.shift(shift).clip(0.0, 1.0)
