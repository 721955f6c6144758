"""Tests for Algorithm C with dynamic (Markov) memory — Theorem 3.4."""

from __future__ import annotations

import numpy as np
import pytest

from repro.optimizer import optimize_algorithm_c
from repro.core.distributions import uniform_over
from repro.core.markov import MarkovParameter, random_walk_chain, sticky_chain
from repro.costmodel.model import DEFAULT_METHODS, CostModel
from repro.optimizer.exhaustive import exhaustive_best
from repro.workloads.queries import chain_query


class TestTheorem34:
    @pytest.mark.parametrize("seed", range(5))
    def test_exact_over_sequence_objective(self, seed):
        """The DP plan minimises brute-force sequence-enumerated cost."""
        rng = np.random.default_rng(seed)
        q = chain_query(4, rng)
        chain = random_walk_chain(
            [100.0, 500.0, 2500.0], move_prob=0.2 + 0.15 * seed
        )
        eval_cm = CostModel(count_evaluations=False)
        res = optimize_algorithm_c(q, chain)
        truth, _ = exhaustive_best(
            q,
            lambda p: eval_cm.plan_expected_cost_bruteforce(p, q, chain),
            DEFAULT_METHODS,
        )
        assert res.objective == pytest.approx(truth.objective)

    def test_static_chain_reduces_to_static_algorithm(self, bimodal_memory):
        rng = np.random.default_rng(42)
        q = chain_query(4, rng, require_order=True)
        static = optimize_algorithm_c(q, bimodal_memory)
        frozen = optimize_algorithm_c(q, MarkovParameter.static(bimodal_memory))
        assert static.plan == frozen.plan
        assert static.objective == pytest.approx(frozen.objective)

    def test_sticky_chain_same_plan_as_marginal_when_memoryless(self):
        """With stickiness 0 the chain is i.i.d. across phases; because
        phase costs are additive, the optimal plan equals the static one."""
        rng = np.random.default_rng(3)
        q = chain_query(4, rng)
        marginal = uniform_over([200.0, 1000.0, 4000.0])
        chain = sticky_chain(marginal, 0.0)
        dyn = optimize_algorithm_c(q, chain)
        static = optimize_algorithm_c(q, marginal)
        assert dyn.objective == pytest.approx(static.objective)
        assert dyn.plan == static.plan

    def test_phase_awareness_dominates_static_lec(self):
        """A phase-blind LEC (fed only the phase-0 marginal) is never
        better than the phase-aware DP under the true dynamic objective,
        and on at least one query the phase-aware plan is strictly
        different and strictly better."""
        # Memory starts high and decays hard between phases.
        chain = MarkovParameter(
            [300.0, 1200.0], [0.0, 1.0], [[1.0, 0.0], [0.7, 0.3]]
        )
        eval_cm = CostModel(count_evaluations=False)
        any_strict = False
        for seed in range(12):
            rng = np.random.default_rng(1000 + seed)
            q = chain_query(4, rng, min_pages=5000, max_pages=500000,
                            require_order=True)
            dyn = optimize_algorithm_c(q, chain)
            static = optimize_algorithm_c(q, chain.marginal(0))
            e_static = eval_cm.plan_expected_cost_markov(static.plan, q, chain)
            assert dyn.objective <= e_static + 1e-6
            if static.plan != dyn.plan and dyn.objective < e_static * (1 - 1e-9):
                any_strict = True
        assert any_strict, (
            "expected at least one query where phase awareness strictly "
            "changes the chosen plan"
        )
