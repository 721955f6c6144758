"""Tolerance helpers for cost and probability comparisons.

The cost formulas of the paper are discontinuous in memory, expected
costs are long weighted sums, and probability masses are renormalized on
every construction — so two mathematically equal quantities routinely
differ in the last few ulps.  Exact ``==``/``!=`` on them is a latent
bug; these helpers are the sanctioned way to compare:

* :func:`costs_close` — relative tolerance sized for page-I/O costs,
  which span ``1`` to ``1e9`` in the experiments;
* :func:`probs_close` — absolute tolerance sized for probability
  masses, which live in ``[0, 1]`` and accumulate ``1e-16``-scale
  renormalization drift;
* :func:`negligible_mass` — the guard to use before conditioning on or
  dividing by a probability mass: prefix-sum differences can drift a
  true zero to ``±1e-17``, so an exact ``== 0.0`` guard both misses the
  negative case and treats numerical noise as real mass.

The expected-cost kernel's numeric contract
-------------------------------------------
``core/expected_cost.py`` computes ``E[Φ]`` two ways, and promises two
different things about them:

* **fast vs naive: a relative bound.**  The linear-time paths
  (Sections 3.6.1–3.6.2) regroup the naive ``b_L·b_R·b_M`` triple sum
  into prefix/suffix sums, so they add the same non-negative terms in
  another order.  Every table they read is a *direct* running sum (no
  ``1 - cdf`` differences, hence no cancellation and no mass
  threshold), which bounds the disagreement by summation rounding:
  ``|fast - naive| <= COST_REL_TOL * |naive|`` for the bucket counts the
  optimizer produces.  A term is never dropped because its probability
  is small — it may be weighted by ``a·b`` page counts of ``1e11`` and
  more.
* **batched vs single: bitwise.**  One request evaluated alone or
  inside a batch of any width yields the same float to the last ulp
  (strictly sequential row sums that exact ``0.0`` padding cannot
  perturb).  "Bitwise" never refers to fast vs naive.
"""

from __future__ import annotations

import math

__all__ = [
    "COST_REL_TOL",
    "COST_ABS_TOL",
    "PROB_ABS_TOL",
    "MASS_EPS",
    "costs_close",
    "probs_close",
    "negligible_mass",
]

#: relative tolerance for cost comparisons (costs span many decades).
COST_REL_TOL = 1e-9
#: absolute floor so near-zero costs still compare sanely.
COST_ABS_TOL = 1e-9
#: absolute tolerance for probability-mass comparisons.
PROB_ABS_TOL = 1e-9
#: mass at or below this is renormalization noise, not a real bucket.
MASS_EPS = 1e-15


def costs_close(a: float, b: float, rel_tol: float = COST_REL_TOL,
                abs_tol: float = COST_ABS_TOL) -> bool:
    """True when two costs are equal up to numerical noise."""
    return math.isclose(a, b, rel_tol=rel_tol, abs_tol=abs_tol)


def probs_close(a: float, b: float, abs_tol: float = PROB_ABS_TOL) -> bool:
    """True when two probabilities are equal up to renormalization drift."""
    return math.isclose(a, b, rel_tol=0.0, abs_tol=abs_tol)


def negligible_mass(p: float, eps: float = MASS_EPS) -> bool:
    """True when a probability mass is zero up to prefix-sum drift.

    Use this instead of ``p == 0.0`` before dividing by ``p`` or
    skipping a conditional-expectation branch: cumulative-sum
    cancellation can leave a true zero at ``±1e-17``, which an exact
    check misclassifies in both directions.
    """
    return p <= eps
