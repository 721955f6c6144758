"""Shared fixtures for the test suite."""

from __future__ import annotations

import os

import numpy as np
import pytest
from hypothesis import settings

from repro.core.distributions import DiscreteDistribution, two_point
from repro.costmodel.model import CostModel
from repro.plans.query import JoinPredicate, JoinQuery, RelationSpec

# Tier-1's colour must not depend on the draw: by default every property
# test sees the same examples on every run and ignores the local example
# database.  Nor on the clock: a derandomized run learns nothing from
# hypothesis' 200 ms per-example deadline, which a cold import on a tree
# without __pycache__ can overrun.  HYPOTHESIS_PROFILE=random restores
# fresh draws (and the deadline) for long exploratory runs; what those
# falsify gets pinned as an @example.
settings.register_profile(
    "tier1", derandomize=True, database=None, deadline=None
)
settings.register_profile("random", derandomize=False)
settings.load_profile(os.environ.get("HYPOTHESIS_PROFILE", "tier1"))


@pytest.fixture
def rng() -> np.random.Generator:
    """Deterministic RNG for tests."""
    return np.random.default_rng(12345)


@pytest.fixture
def bimodal_memory() -> DiscreteDistribution:
    """The paper's 2000@0.8 / 700@0.2 memory distribution."""
    return two_point(2000.0, 0.8, 700.0)


@pytest.fixture
def small_memory_dist() -> DiscreteDistribution:
    """A 4-point memory distribution spanning typical breakpoints."""
    return DiscreteDistribution(
        [300.0, 800.0, 2000.0, 5000.0], [0.2, 0.3, 0.3, 0.2]
    )


@pytest.fixture
def cost_model() -> CostModel:
    """A fresh cost model with the paper's three join methods."""
    return CostModel()


@pytest.fixture
def example_query() -> JoinQuery:
    """The Example 1.1 query: A(1M pages) ⋈ B(400k), result 3000 pages."""
    return JoinQuery(
        relations=[
            RelationSpec(name="A", pages=1_000_000.0),
            RelationSpec(name="B", pages=400_000.0),
        ],
        predicates=[
            JoinPredicate(
                left="A",
                right="B",
                selectivity=1e-9,
                label="A=B",
                result_pages_override=3000.0,
            )
        ],
        required_order="A=B",
    )


@pytest.fixture
def three_way_query() -> JoinQuery:
    """A 3-relation chain with hand-picked sizes and selectivities."""
    return JoinQuery(
        relations=[
            RelationSpec(name="R", pages=50_000.0),
            RelationSpec(name="S", pages=8_000.0),
            RelationSpec(name="T", pages=1_000.0),
        ],
        predicates=[
            JoinPredicate(left="R", right="S", selectivity=2e-8, label="R=S"),
            JoinPredicate(left="S", right="T", selectivity=1e-6, label="S=T"),
        ],
        rows_per_page=100,
    )
