"""Left-deep parity and plan-space dominance guarantees.

The plan-space refactor rewired the DP enumerator, the costers and the
facade.  Its golden plans and objectives — left-deep under every
objective, and every space under ``lec`` and ``multiparam`` — are the
``parity`` and ``golden`` families of the answer corpus
(``tests/corpus``); the two pin classes below check those lines under
their old ids.  What stays here is contract, not pin:
richer spaces may only improve the optimum (dominance), never hurt it,
and every spelling of the left-deep space is one space.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.optimizer.facade import clear_context_cache, optimize
from repro.workloads.queries import random_query

from ..corpus.ops import OPS
from ..corpus.ops import TWO_POINT as MEMORY
from ..corpus.test_corpus import assert_replays, corpus_ops


class TestLeftDeepGoldenParity:
    @corpus_ops("parity", numbered=True)
    def test_bit_identical_to_pre_refactor(self, op_id):
        assert_replays(op_id)


class TestSpaceDominance:
    @pytest.mark.parametrize("objective", ["lsc", "lec"])
    def test_richer_spaces_never_worse(self, objective):
        rng = np.random.default_rng(7)
        for _ in range(6):
            query = random_query(
                4, rng, min_pages=200, max_pages=200000, rows_per_page=100
            )
            costs = {}
            for space in ["left-deep", "zig-zag", "bushy"]:
                clear_context_cache()
                res = optimize(query, objective, memory=MEMORY, plan_space=space)
                costs[space] = res.objective
            assert costs["zig-zag"] <= costs["left-deep"] * (1 + 1e-9)
            assert costs["bushy"] <= costs["zig-zag"] * (1 + 1e-9)

    def test_left_deep_aliases_identical(self):
        chain5 = next(op.query for op in OPS if op.id == "parity/chain5-lec")
        base = None
        for spelling in ["left-deep", "left_deep", "leftdeep"]:
            clear_context_cache()
            res = optimize(chain5, "lec", memory=MEMORY, plan_space=spelling)
            if base is None:
                base = (res.plan.signature(), res.objective)
            assert (res.plan.signature(), res.objective) == base


class TestGoldenCostPins:
    @corpus_ops("golden", numbered=True)
    def test_cost_pinned(self, op_id):
        assert_replays(op_id)
