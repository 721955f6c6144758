"""The numeric floor: distributions, bucketing, Markov chains, Bayes nets.

Everything here takes and gives plain numbers and arrays (Section 3.1's
discrete distributions and their expectations).  It imports no other
``repro`` package, apart from the ``context`` and ``expected_cost``
aliases that ``bench/`` still names; the cost formulas, expected-cost
kernels and the optimization context sit on it in :mod:`repro.costmodel`.
"""

from .bayesnet import BayesNetError, DiscreteBayesNet
from .bucketing import (
    equal_depth_buckets,
    equal_width_buckets,
    level_set_buckets,
    level_set_cuts,
    level_set_expectation,
    refine_adaptive,
)
from .distributions import (
    DiscreteDistribution,
    discretized_lognormal,
    discretized_normal,
    from_samples,
    independent_product,
    point_mass,
    two_point,
    uniform_over,
)
from .markov import MarkovParameter, random_walk_chain, sticky_chain

__all__ = [
    "DiscreteDistribution",
    "point_mass",
    "two_point",
    "uniform_over",
    "from_samples",
    "discretized_lognormal",
    "discretized_normal",
    "independent_product",
    "DiscreteBayesNet",
    "BayesNetError",
    "MarkovParameter",
    "random_walk_chain",
    "sticky_chain",
    "equal_width_buckets",
    "equal_depth_buckets",
    "level_set_buckets",
    "level_set_cuts",
    "level_set_expectation",
    "refine_adaptive",
]
