"""Cardinality feedback: learn selectivity distributions from execution.

The paper's answer to "how do we get the probability distributions?" is
that "the DBMS in practice is constantly gathering statistical
information".  This module closes that loop for selectivities: every
executed join reports its measured input/output cardinalities
(:class:`~repro.engine.executor.JoinObservation`), the collector turns
each predicate's history into an *empirical selectivity distribution*,
and :meth:`SelectivityFeedback.apply_to_query` hands those distributions
straight to Algorithm D — so the optimizer's uncertainty model improves
with every query the system runs instead of being configured by hand.

Until enough observations accumulate, a log-spaced prior around the
catalog estimate is blended in, shrinking as evidence arrives.
"""

from __future__ import annotations

import dataclasses
from collections import defaultdict
from typing import Dict, Iterable, List

import numpy as np

from ..core.distributions import DiscreteDistribution, from_samples, point_mass

__all__ = ["SelectivityFeedback"]


class SelectivityFeedback:
    """Accumulates observed join selectivities per predicate label.

    Parameters
    ----------
    n_buckets:
        Bucket count for the learned distributions.
    min_observations:
        Below this many observations the learned distribution is blended
        with the prior; with zero observations the prior is returned
        unchanged.
    prior_relative_error:
        Spread of the fallback prior built around a query's point
        estimate (log-spaced, mean-preserving), mirroring
        :func:`repro.workloads.queries.with_selectivity_uncertainty`.
    """

    def __init__(
        self,
        n_buckets: int = 6,
        min_observations: int = 5,
        prior_relative_error: float = 1.0,
    ):
        if n_buckets < 1:
            raise ValueError("n_buckets must be >= 1")
        if min_observations < 1:
            raise ValueError("min_observations must be >= 1")
        self.n_buckets = n_buckets
        self.min_observations = min_observations
        self.prior_relative_error = prior_relative_error
        self._history: Dict[str, List[float]] = defaultdict(list)
        self._version = 0

    # ------------------------------------------------------------------
    # Versioning (cache-invalidation hook)
    # ------------------------------------------------------------------

    @property
    def version(self) -> int:
        """Monotonically increasing counter, bumped whenever new
        observations land — the serving layer's plan cache keys on it so
        plans optimized before feedback arrived are never served after."""
        return self._version

    # ------------------------------------------------------------------
    # Recording
    # ------------------------------------------------------------------

    def record(self, observations: Iterable) -> int:
        """Ingest :class:`JoinObservation` records; returns how many."""
        count = 0
        for obs in observations:
            sel = obs.actual_selectivity
            if sel <= 0.0:
                # An empty result still carries information; clamp to a
                # tiny positive value so log-space machinery stays sane.
                sel = 1e-12
            self._history[obs.predicate_label].append(float(min(1.0, sel)))
            count += 1
        if count:
            self._version += 1
        return count

    # ------------------------------------------------------------------
    # Producing distributions
    # ------------------------------------------------------------------

    def _prior(self, point: float) -> DiscreteDistribution:
        point = max(point, 1e-12)
        if self.prior_relative_error <= 0 or self.n_buckets == 1:
            return point_mass(min(point, 1.0))
        factor = 1.0 + self.prior_relative_error
        exps = np.linspace(-1.0, 1.0, self.n_buckets)
        vals = np.clip(point * factor**exps, 0.0, 1.0)
        dist = DiscreteDistribution(vals, np.full(self.n_buckets, 1.0 / self.n_buckets))
        scale = point / dist.mean() if dist.mean() > 0 else 1.0
        return dist.scale(scale).clip(0.0, 1.0)

    def distribution(
        self, label: str, point_estimate: float
    ) -> DiscreteDistribution:
        """Learned selectivity distribution for a predicate.

        With no history: the prior around ``point_estimate``.  With
        partial history: an evidence-weighted mixture.  With at least
        ``min_observations``: the empirical distribution alone.
        """
        history = self._history.get(label, [])
        if not history:
            return self._prior(point_estimate)
        empirical = from_samples(history, n_buckets=self.n_buckets)
        if len(history) >= self.min_observations:
            return empirical
        weight = len(history) / self.min_observations
        return empirical.mixture(self._prior(point_estimate), weight)

    def apply_to_query(self, query):
        """Return ``query`` with learned distributions on every predicate.

        ``query`` is a :class:`~repro.plans.query.JoinQuery`; the copy is
        built as ``type(query)`` because the catalog sits below
        :mod:`repro.plans` and imports nothing of it.

        Point selectivities move to the learned distribution's mean so
        LSC baselines benefit from the feedback too — the comparison in
        experiment E20 is then purely about carrying the *spread*.
        """
        preds = []
        for p in query.predicates:
            dist = self.distribution(p.label, p.selectivity)
            preds.append(dataclasses.replace(
                p, selectivity=float(min(1.0, dist.mean())), selectivity_dist=dist,
            ))
        return type(query)(
            list(query.relations),
            preds,
            required_order=query.required_order,
            rows_per_page=query.rows_per_page,
        )
