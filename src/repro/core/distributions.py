"""Finite discrete probability distributions ("bucketed" parameters).

The LEC framework models every uncertain optimizer parameter — available
buffer memory, relation sizes, predicate selectivities — as a probability
distribution partitioned into a small number of *buckets*.  Each bucket is
represented by a single support point (its representative) carrying the
bucket's total probability mass.  This module provides the
:class:`DiscreteDistribution` type used throughout the library, together
with the prefix-sum machinery (conditional expectations, tail
probabilities) that the linear-time expected-cost algorithms of the paper
(Sections 3.6.1-3.6.2) rely on.

Design notes
------------
* Instances are immutable: all mutating-style operations return new
  distributions.  Internally, support points are kept sorted ascending and
  duplicate values are merged, so two distributions over the same PMF
  compare equal regardless of construction order.
* Probabilities are validated to be non-negative and to sum to one within
  a small tolerance; they are renormalised exactly on construction so that
  downstream expectations are not polluted by drift.
* All heavy lifting uses numpy, but the public API accepts and returns
  plain Python floats where scalars are concerned.
"""

from __future__ import annotations

import math
from typing import Callable, Iterable, Iterator, List, Optional, Sequence, Tuple

import numpy as np

__all__ = [
    "DiscreteDistribution",
    "point_mass",
    "two_point",
    "uniform_over",
    "from_samples",
    "discretized_lognormal",
    "discretized_normal",
    "independent_product",
]

_PROB_TOL = 1e-9


class DistributionError(ValueError):
    """Raised when a distribution would be constructed from invalid data."""


def _as_float_array(data) -> np.ndarray:
    """1-d float view of ``data`` without an intermediate ``list`` copy.

    Arrays and sequences go straight through ``np.asarray`` (ndarrays of
    the right dtype are passed through as-is — safe because the
    constructor copies a passed-through support it did not have to sort
    before freezing it, and renormalises the mass into a fresh array);
    only lazy iterables are materialised first.
    """
    if isinstance(data, (np.ndarray, list, tuple)):
        return np.asarray(data, dtype=float)
    return np.asarray(list(data), dtype=float)


class DiscreteDistribution:
    """An immutable finite discrete probability distribution.

    Parameters
    ----------
    values:
        Support points (bucket representatives).  Need not be sorted or
        unique; duplicates are merged by summing their probabilities.
    probs:
        Probability mass for each support point.  Must be non-negative and
        sum to 1 within ``1e-9`` (the mass is renormalised exactly).

    Examples
    --------
    >>> memory = DiscreteDistribution([2000, 700], [0.8, 0.2])
    >>> memory.expectation()
    1740.0
    >>> memory.mode()
    2000.0
    """

    __slots__ = ("_values", "_probs", "_cdf", "_weighted_prefix", "_tail", "_hash")

    def __init__(self, values: Iterable[float], probs: Iterable[float]):
        vals = _as_float_array(values)
        prbs = _as_float_array(probs)
        if vals.shape != prbs.shape or vals.ndim != 1:
            raise DistributionError(
                f"values and probs must be 1-d and the same length, got shapes "
                f"{vals.shape} and {prbs.shape}"
            )
        if vals.size == 0:
            raise DistributionError("a distribution needs at least one support point")
        if not np.isfinite(vals).all():
            raise DistributionError("support points must be finite")
        least = prbs.min()
        if not least >= 0.0:  # a negative entry, or a NaN the sum rejects
            if np.any(prbs < -_PROB_TOL):
                raise DistributionError("probabilities must be non-negative")
            prbs = np.clip(prbs, 0.0, None)
        total = float(prbs.sum())
        if not math.isclose(total, 1.0, rel_tol=0.0, abs_tol=1e-6):
            raise DistributionError(f"probabilities must sum to 1, got {total!r}")
        prbs = prbs / total

        if (vals[1:] > vals[:-1]).all():
            # Already canonical (strictly ascending, hence duplicate-free):
            # the stable sort would be the identity.  Nothing below copies,
            # and a caller's own array must not be the one that is frozen.
            if isinstance(values, np.ndarray):
                vals = vals.copy()
        else:
            order = np.argsort(vals, kind="stable")
            vals = vals[order]
            prbs = prbs[order]

            # Merge duplicate support points so equality is canonical.
            keep_mask = np.empty(vals.size, dtype=bool)
            keep_mask[0] = True
            keep_mask[1:] = vals[1:] != vals[:-1]
            if not keep_mask.all():
                group_ids = np.cumsum(keep_mask) - 1
                merged = np.zeros(int(group_ids[-1]) + 1, dtype=float)
                np.add.at(merged, group_ids, prbs)
                vals = vals[keep_mask]
                prbs = merged

        # Drop zero-probability points unless that would empty the support
        # (none exists when the smallest mass handed in was positive).
        if not least > 0.0:
            nonzero = prbs > 0.0
            if nonzero.any() and not nonzero.all():
                vals = vals[nonzero]
                prbs = prbs[nonzero]

        self._seal(vals, prbs)

    def _seal(self, vals: np.ndarray, prbs: np.ndarray) -> None:
        """Freeze ``vals``/``prbs`` as this distribution's own arrays."""
        self._values = vals
        self._probs = prbs
        self._values.setflags(write=False)
        self._probs.setflags(write=False)
        self._cdf = np.cumsum(prbs)
        self._weighted_prefix = np.cumsum(vals * prbs)
        self._cdf.setflags(write=False)
        self._weighted_prefix.setflags(write=False)
        self._tail: Optional[np.ndarray] = None
        self._hash: Optional[int] = None

    @classmethod
    def _decoded(cls, values, probs) -> "DiscreteDistribution":
        """The constructor's result, but arrays that already are one (strictly
        ascending support, positive masses summing to 1 within 8 ulps) are
        kept bit for bit: a document decodes to the distribution that wrote it."""
        vals, prbs = np.array(values, dtype=float), np.array(probs, dtype=float)
        if not (vals.ndim == 1 and vals.size and prbs.shape == vals.shape
                and np.isfinite(vals).all() and (vals[1:] > vals[:-1]).all()
                and (prbs > 0.0).all() and abs(prbs.sum() - 1.0) <= 8 * np.finfo(float).eps):
            return cls(values, probs)
        self = cls.__new__(cls)
        self._seal(vals, prbs)
        return self

    # ------------------------------------------------------------------
    # Basic accessors
    # ------------------------------------------------------------------

    @property
    def values(self) -> np.ndarray:
        """Sorted support points (read-only array)."""
        return self._values

    @property
    def probs(self) -> np.ndarray:
        """Probability mass aligned with :attr:`values` (read-only array)."""
        return self._probs

    @property
    def n_buckets(self) -> int:
        """Number of support points (buckets)."""
        return int(self._values.size)

    def support(self) -> List[float]:
        """The support as a plain list of floats."""
        return [float(v) for v in self._values]

    def items(self) -> Iterator[Tuple[float, float]]:
        """Iterate over ``(value, probability)`` pairs in ascending value order."""
        for v, p in zip(self._values, self._probs):
            yield float(v), float(p)

    def prob_of(self, value: float) -> float:
        """Probability mass at ``value`` (0.0 if not a support point)."""
        idx = np.searchsorted(self._values, value)
        if idx < self._values.size and self._values[idx] == value:
            return float(self._probs[idx])
        return 0.0

    @property
    def cdf_array(self) -> np.ndarray:
        """``Pr(X <= values[i])`` per support point (read-only array).

        The prefix table the linear-time expected-cost algorithms gather
        from; cached at construction so no caller ever re-cumsums it.
        """
        return self._cdf

    @property
    def weighted_prefix_array(self) -> np.ndarray:
        """``E[X ; X <= values[i]]`` per support point (read-only array)."""
        return self._weighted_prefix

    def sf_arrays(self) -> Tuple[np.ndarray, np.ndarray]:
        """``(Pr(X >= values[i]), Pr(X > values[i]))`` suffix tables.

        Computed once per instance and cached (the survival table the
        paper amortises across all dag nodes); both arrays are read-only
        views into one suffix-sum buffer.
        """
        if self._tail is None:
            suffix = np.concatenate([np.cumsum(self._probs[::-1])[::-1], [0.0]])
            suffix.setflags(write=False)
            self._tail = suffix
        return self._tail[:-1], self._tail[1:]

    def cdf_many(self, xs) -> np.ndarray:
        """Vectorized :meth:`cdf`: ``Pr(X <= x)`` for an array of ``x``."""
        xs = np.asarray(xs, dtype=float)
        idx = np.searchsorted(self._values, xs, side="right")
        return np.where(idx > 0, self._cdf[np.maximum(idx - 1, 0)], 0.0)

    def sf_many(self, xs) -> np.ndarray:
        """Vectorized :meth:`sf`: ``Pr(X > x)`` for an array of ``x``."""
        return 1.0 - self.cdf_many(xs)

    def prob_of_many(self, xs) -> np.ndarray:
        """Vectorized :meth:`prob_of`: point mass at each of ``xs``."""
        xs = np.asarray(xs, dtype=float)
        idx = np.searchsorted(self._values, xs)
        safe = np.minimum(idx, self._values.size - 1)
        hit = (idx < self._values.size) & (self._values[safe] == xs)
        return np.where(hit, self._probs[safe], 0.0)

    def is_point_mass(self) -> bool:
        """True when the entire mass sits on a single value."""
        return self.n_buckets == 1

    # ------------------------------------------------------------------
    # Moments and summary statistics
    # ------------------------------------------------------------------

    def expectation(self, fn: Optional[Callable[[float], float]] = None) -> float:
        """Return ``E[fn(X)]`` (or ``E[X]`` when ``fn`` is omitted).

        ``fn`` is evaluated once per bucket — this is exactly the
        "b evaluations of the cost formula" accounting of the paper.
        """
        if fn is None:
            return float(self._weighted_prefix[-1])
        vals = np.fromiter(
            (fn(float(v)) for v in self._values), dtype=float, count=self._values.size
        )
        return float(np.dot(vals, self._probs))

    def mean(self) -> float:
        """Alias for :meth:`expectation` with no transform."""
        return self.expectation()

    def variance(self) -> float:
        """Return ``Var[X]``."""
        mu = self.expectation()
        return float(np.dot((self._values - mu) ** 2, self._probs))

    def std(self) -> float:
        """Return the standard deviation of ``X``."""
        return math.sqrt(max(self.variance(), 0.0))

    def coefficient_of_variation(self) -> float:
        """Return ``std/|mean|`` — the variability knob the experiments sweep."""
        mu = self.expectation()
        if mu == 0.0:
            return math.inf if self.variance() > 0 else 0.0
        return self.std() / abs(mu)

    def mode(self) -> float:
        """Return the most likely value (smallest such value on ties)."""
        return float(self._values[int(np.argmax(self._probs))])

    def min(self) -> float:
        """Smallest support point."""
        return float(self._values[0])

    def max(self) -> float:
        """Largest support point."""
        return float(self._values[-1])

    # ------------------------------------------------------------------
    # CDF machinery (used by the linear-time expected-cost algorithms)
    # ------------------------------------------------------------------

    def cdf(self, x: float) -> float:
        """Return ``Pr(X <= x)``."""
        idx = np.searchsorted(self._values, x, side="right")
        return float(self._cdf[idx - 1]) if idx > 0 else 0.0

    def sf(self, x: float) -> float:
        """Return the survival function ``Pr(X > x)``."""
        return 1.0 - self.cdf(x)

    def prob_lt(self, x: float) -> float:
        """Return ``Pr(X < x)``."""
        idx = np.searchsorted(self._values, x, side="left")
        return float(self._cdf[idx - 1]) if idx > 0 else 0.0

    def prob_ge(self, x: float) -> float:
        """Return ``Pr(X >= x)``."""
        return 1.0 - self.prob_lt(x)

    def quantile(self, q: float) -> float:
        """Return the smallest value ``v`` with ``Pr(X <= v) >= q``."""
        if not 0.0 <= q <= 1.0:
            raise ValueError(f"quantile level must be in [0, 1], got {q}")
        idx = int(np.searchsorted(self._cdf, q - 1e-12, side="left"))
        idx = min(idx, self._values.size - 1)
        return float(self._values[idx])

    def partial_expectation_le(self, x: float) -> float:
        """Return the *unnormalised* ``E[X ; X <= x] = Σ_{v<=x} v·Pr(v)``.

        This is the prefix table the paper's O(b_M + b_|A| + b_|B|)
        algorithms maintain; dividing by :meth:`cdf` gives the conditional
        expectation ``E[X | X <= x]``.
        """
        idx = np.searchsorted(self._values, x, side="right")
        return float(self._weighted_prefix[idx - 1]) if idx > 0 else 0.0

    def partial_expectation_ge(self, x: float) -> float:
        """Return the *unnormalised* ``E[X ; X >= x] = Σ_{v>=x} v·Pr(v)``."""
        # partial_expectation_le includes the mass exactly at x, so add it
        # back after subtracting the prefix.
        return (
            self.expectation()
            - self.partial_expectation_le(x)
            + x * self.prob_of(x)
        )

    def conditional_expectation_le(self, x: float) -> float:
        """Return ``E[X | X <= x]``; raises if ``Pr(X <= x) == 0``."""
        p = self.cdf(x)
        if p <= 0.0:
            raise ValueError(f"conditioning event X <= {x} has probability 0")
        return self.partial_expectation_le(x) / p

    def conditional_expectation_ge(self, x: float) -> float:
        """Return ``E[X | X >= x]``; raises if ``Pr(X >= x) == 0``."""
        p = self.prob_ge(x)
        if p <= 0.0:
            raise ValueError(f"conditioning event X >= {x} has probability 0")
        return self.partial_expectation_ge(x) / p

    # ------------------------------------------------------------------
    # Transformations
    # ------------------------------------------------------------------

    def map(self, fn: Callable[[float], float]) -> "DiscreteDistribution":
        """Return the distribution of ``fn(X)`` (equal outcomes merged)."""
        new_vals = [fn(float(v)) for v in self._values]
        return DiscreteDistribution(new_vals, self._probs)

    def scale(self, factor: float) -> "DiscreteDistribution":
        """Return the distribution of ``factor · X``."""
        return DiscreteDistribution(self._values * factor, self._probs)

    def shift(self, offset: float) -> "DiscreteDistribution":
        """Return the distribution of ``X + offset``."""
        return DiscreteDistribution(self._values + offset, self._probs)

    def clip(self, lo: Optional[float] = None, hi: Optional[float] = None) -> "DiscreteDistribution":
        """Return the distribution of ``min(max(X, lo), hi)``."""
        vals = self._values
        if lo is not None:
            vals = np.maximum(vals, lo)
        if hi is not None:
            vals = np.minimum(vals, hi)
        return DiscreteDistribution(vals, self._probs)

    def mixture(
        self, other: "DiscreteDistribution", weight_self: float
    ) -> "DiscreteDistribution":
        """Return the mixture ``weight_self·self + (1-weight_self)·other``."""
        if not 0.0 <= weight_self <= 1.0:
            raise ValueError("mixture weight must be in [0, 1]")
        vals = np.concatenate([self._values, other._values])
        probs = np.concatenate(
            [self._probs * weight_self, other._probs * (1.0 - weight_self)]
        )
        return DiscreteDistribution(vals, probs)

    def convolve(self, other: "DiscreteDistribution") -> "DiscreteDistribution":
        """Return the distribution of ``X + Y`` for independent X, Y.

        Outer-sum over the two supports; the constructor's sort/merge
        pass dedups equal outcomes.  Same enumeration order (left-major)
        as the generic :func:`independent_product` route it replaces.
        """
        vals = np.add.outer(self._values, other._values).ravel()
        probs = np.multiply.outer(self._probs, other._probs).ravel()
        return DiscreteDistribution(vals, probs)

    def multiply(self, other: "DiscreteDistribution") -> "DiscreteDistribution":
        """Return the distribution of ``X · Y`` for independent X, Y."""
        vals = np.multiply.outer(self._values, other._values).ravel()
        probs = np.multiply.outer(self._probs, other._probs).ravel()
        return DiscreteDistribution(vals, probs)

    # ------------------------------------------------------------------
    # Rebucketing (Section 3.6.3)
    # ------------------------------------------------------------------

    def rebucket(self, n_buckets: int, strategy: str = "equidepth") -> "DiscreteDistribution":
        """Coarsen the distribution to at most ``n_buckets`` support points.

        Each new bucket's representative is the probability-weighted mean
        of the merged points, so the overall expectation is preserved
        exactly (the paper's "rebucketing" step when propagating result
        sizes through the dag).

        Parameters
        ----------
        n_buckets:
            Target number of buckets (``>= 1``).
        strategy:
            ``"equidepth"`` merges points into groups of roughly equal
            probability mass; ``"equiwidth"`` merges points into groups of
            equal value-range width.
        """
        if n_buckets < 1:
            raise ValueError("n_buckets must be >= 1")
        if self.n_buckets <= n_buckets:
            return self
        if strategy == "equidepth":
            edges = self._equidepth_edges(n_buckets)
        elif strategy == "equiwidth":
            edges = self._equiwidth_edges(n_buckets)
        else:
            raise ValueError(f"unknown rebucket strategy {strategy!r}")
        return self._merge_by_edges(edges)

    def _equidepth_edges(self, n_buckets: int) -> np.ndarray:
        """Index boundaries splitting support into ~equal-mass groups."""
        targets = np.arange(1, n_buckets) / n_buckets
        idx = np.searchsorted(self._cdf, targets - 1e-12, side="left") + 1
        # Enforce strictly increasing edges: out[i] = max(idx[i], out[i-1]+1)
        # is exactly a running max of (idx[i] - i) shifted back by i.
        ramp = np.arange(idx.size)
        edges = np.maximum.accumulate(idx - ramp) + ramp
        return edges[edges < self._values.size]

    def _equiwidth_edges(self, n_buckets: int) -> np.ndarray:
        """Index boundaries splitting the value range into equal widths."""
        lo, hi = float(self._values[0]), float(self._values[-1])
        if hi == lo:
            return np.empty(0, dtype=np.intp)
        width = (hi - lo) / n_buckets
        cuts = lo + np.arange(1, n_buckets) * width
        idx = np.searchsorted(self._values, cuts, side="right")
        # idx is non-decreasing (cuts ascend), so dedup keeps the first
        # occurrence — the same edge the old skip-if-not-larger loop kept.
        idx = np.unique(idx)
        return idx[(idx > 0) & (idx < self._values.size)]

    def _merge_by_edges(self, edges: Sequence[int]) -> "DiscreteDistribution":
        # Per-segment reductions stay as np.sum / np.dot on slices: the
        # loop runs over *output* buckets (a handful), and the pairwise /
        # BLAS reductions here are part of the numeric contract — a
        # different summation order would shift representatives by an ulp
        # and, through equidepth edge placement, move whole buckets.
        bounds = [0, *(int(e) for e in edges), self._values.size]
        vals: List[float] = []
        probs: List[float] = []
        for a, b in zip(bounds[:-1], bounds[1:]):
            if a >= b:
                continue
            mass = float(self._probs[a:b].sum())
            if mass <= 0.0:
                continue
            rep = float(np.dot(self._values[a:b], self._probs[a:b]) / mass)
            vals.append(rep)
            probs.append(mass)
        return DiscreteDistribution(vals, probs)

    def rebucket_by_edges(self, boundaries: Sequence[float]) -> "DiscreteDistribution":
        """Merge support points using explicit *value* boundaries.

        ``boundaries`` are cut points; support points within the same cell
        of the induced partition are merged (probability-weighted mean
        representative).  Used by level-set-aware bucketing, where the
        boundaries come from cost-formula breakpoints.
        """
        cuts = np.unique(np.asarray(list(boundaries), dtype=float))
        edges = np.unique(np.searchsorted(self._values, cuts, side="left"))
        return self._merge_by_edges(edges[(edges > 0) & (edges < self._values.size)])

    # ------------------------------------------------------------------
    # Sampling
    # ------------------------------------------------------------------

    def sample(self, rng: np.random.Generator, size: Optional[int] = None):
        """Draw samples; returns a float for ``size=None``, else an array."""
        out = rng.choice(self._values, size=size, p=self._probs)
        if size is None:
            return float(out)
        return out

    # ------------------------------------------------------------------
    # Dunder plumbing
    # ------------------------------------------------------------------

    def __len__(self) -> int:
        return self.n_buckets

    def __iter__(self) -> Iterator[Tuple[float, float]]:
        return self.items()

    def __eq__(self, other: object) -> bool:
        """Bytewise: one ulp in one bucket is another distribution, so a memo
        or plan-tier key holding one names exactly the numbers it was built on."""
        if self is other:
            return True
        if not isinstance(other, DiscreteDistribution):
            return NotImplemented
        return (self._values.tobytes() == other._values.tobytes()
                and self._probs.tobytes() == other._probs.tobytes())

    def __hash__(self) -> int:
        # The floats, not their (per-interpreter salted) bytes: a pickle keeps _hash.
        if self._hash is None:
            self._hash = hash((tuple(self._values.tolist()), tuple(self._probs.tolist())))
        return self._hash

    def __repr__(self) -> str:
        pairs = ", ".join(f"{v:g}@{p:.3g}" for v, p in self.items())
        if len(pairs) > 120:
            return f"DiscreteDistribution(<{self.n_buckets} buckets>, mean={self.mean():g})"
        return f"DiscreteDistribution({pairs})"


# ----------------------------------------------------------------------
# Constructors
# ----------------------------------------------------------------------


def point_mass(value: float) -> DiscreteDistribution:
    """A degenerate distribution: the LSC "one bucket" special case."""
    return DiscreteDistribution([value], [1.0])


def two_point(
    value_a: float, prob_a: float, value_b: float
) -> DiscreteDistribution:
    """A two-point distribution, e.g. the paper's 2000@0.8 / 700@0.2 memory."""
    return DiscreteDistribution([value_a, value_b], [prob_a, 1.0 - prob_a])


def uniform_over(values: Iterable[float]) -> DiscreteDistribution:
    """Uniform distribution over the given support points."""
    vals = list(values)
    if not vals:
        raise DistributionError("uniform_over needs at least one value")
    return DiscreteDistribution(vals, [1.0 / len(vals)] * len(vals))


def from_samples(
    samples: Iterable[float], n_buckets: int = 10, strategy: str = "equidepth"
) -> DiscreteDistribution:
    """Fit a bucketed distribution to observed samples.

    This models how a DBMS would turn its log of observed run-time
    parameter values (e.g. free buffer pages at query start) into the
    distribution the LEC optimizer consumes.
    """
    arr = np.asarray(list(samples), dtype=float)
    if arr.size == 0:
        raise DistributionError("from_samples needs at least one sample")
    uniq, counts = np.unique(arr, return_counts=True)
    dist = DiscreteDistribution(uniq, counts / counts.sum())
    return dist.rebucket(n_buckets, strategy=strategy)


def discretized_lognormal(
    mean: float,
    cv: float,
    n_buckets: int = 8,
    rng: Optional[np.random.Generator] = None,
    n_samples: int = 20000,
) -> DiscreteDistribution:
    """A bucketed lognormal with the given mean and coefficient of variation.

    Used by the variability-sweep experiments: ``cv`` is the knob that
    controls how spread out the run-time environment is around its mean.
    A ``cv`` of 0 returns a point mass (the LSC regime).
    """
    if mean <= 0:
        raise ValueError("mean must be positive")
    if cv < 0:
        raise ValueError("cv must be non-negative")
    if cv == 0:
        return point_mass(mean)
    sigma2 = math.log(1.0 + cv * cv)
    mu = math.log(mean) - sigma2 / 2.0
    sigma = math.sqrt(sigma2)
    if rng is None:
        rng = np.random.default_rng(7)
    samples = rng.lognormal(mean=mu, sigma=sigma, size=n_samples)
    return from_samples(samples, n_buckets=n_buckets, strategy="equidepth")


def discretized_normal(
    mean: float,
    std: float,
    n_buckets: int = 8,
    lo: Optional[float] = None,
    hi: Optional[float] = None,
) -> DiscreteDistribution:
    """A bucketed normal via equal-probability quantile representatives."""
    if std < 0:
        raise ValueError("std must be non-negative")
    if std == 0:
        return point_mass(mean)
    # Midpoint quantiles of each of n equal-probability slices.
    qs = (np.arange(n_buckets) + 0.5) / n_buckets
    # Inverse normal CDF via Acklam-style rational approximation (scipy-free
    # callers); numpy has no ppf, so use the erfinv route.
    from math import sqrt

    vals = mean + std * sqrt(2.0) * _erfinv(2.0 * qs - 1.0)
    if lo is not None:
        vals = np.maximum(vals, lo)
    if hi is not None:
        vals = np.minimum(vals, hi)
    return DiscreteDistribution(vals, np.full(n_buckets, 1.0 / n_buckets))


def _erfinv(y: np.ndarray) -> np.ndarray:
    """Vectorised inverse error function (Winitzki's approximation, refined).

    Accurate to ~1e-6 after one Newton step — ample for bucket placement.
    """
    y = np.asarray(y, dtype=float)
    a = 0.147
    ln_term = np.log1p(-y * y)
    first = 2.0 / (math.pi * a) + ln_term / 2.0
    x = np.sign(y) * np.sqrt(np.sqrt(first * first - ln_term / a) - first)
    # One Newton refinement: f(x) = erf(x) - y.
    erf_x = np.vectorize(math.erf)(x)
    fprime = 2.0 / math.sqrt(math.pi) * np.exp(-x * x)
    with np.errstate(divide="ignore", invalid="ignore"):
        step = np.where(fprime > 0, (erf_x - y) / fprime, 0.0)
    return x - step


def independent_product(
    fn: Callable[..., float], *dists: DiscreteDistribution
) -> DiscreteDistribution:
    """Distribution of ``fn(X1, ..., Xk)`` for independent ``Xi``.

    The cross product of supports is enumerated, so the result can have up
    to ``Π b_i`` support points; callers propagating result sizes through
    the optimizer dag should :meth:`~DiscreteDistribution.rebucket`
    afterwards (Section 3.6.3).
    """
    if not dists:
        raise ValueError("independent_product needs at least one distribution")
    grids = np.meshgrid(*[d.values for d in dists], indexing="ij")
    prob_grids = np.meshgrid(*[d.probs for d in dists], indexing="ij")
    flat_args = [g.ravel() for g in grids]
    probs = np.ones_like(flat_args[0])
    for pg in prob_grids:
        probs = probs * pg.ravel()
    vals = np.fromiter(
        (fn(*row) for row in zip(*flat_args)), dtype=float, count=flat_args[0].size
    )
    return DiscreteDistribution(vals, probs)
