"""Tests for repro.core.markov."""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.distributions import DiscreteDistribution
from repro.core.markov import MarkovParameter, random_walk_chain, sticky_chain


@pytest.fixture
def simple_chain() -> MarkovParameter:
    """Two states with asymmetric transitions."""
    return MarkovParameter(
        states=[100.0, 200.0],
        initial=[1.0, 0.0],
        transition=[[0.5, 0.5], [0.2, 0.8]],
    )


class TestValidation:
    def test_rejects_unsorted_states(self):
        with pytest.raises(ValueError):
            MarkovParameter([2.0, 1.0], [0.5, 0.5], np.eye(2))

    def test_rejects_duplicate_states(self):
        with pytest.raises(ValueError):
            MarkovParameter([1.0, 1.0], [0.5, 0.5], np.eye(2))

    def test_rejects_bad_initial(self):
        with pytest.raises(ValueError):
            MarkovParameter([1.0, 2.0], [0.5, 0.6], np.eye(2))

    def test_rejects_non_stochastic_rows(self):
        with pytest.raises(ValueError):
            MarkovParameter([1.0, 2.0], [0.5, 0.5], [[0.9, 0.2], [0.5, 0.5]])

    def test_rejects_shape_mismatch(self):
        with pytest.raises(ValueError):
            MarkovParameter([1.0, 2.0], [1.0], np.eye(2))
        with pytest.raises(ValueError):
            MarkovParameter([1.0, 2.0], [0.5, 0.5], np.eye(3))


class TestOwnership:
    def _arrays(self):
        return (
            np.array([100.0, 200.0]),
            np.array([1.0, 0.0]),
            np.array([[0.5, 0.5], [0.2, 0.8]]),
        )

    def test_states_equal_what_was_passed(self):
        states, initial, transition = self._arrays()
        chain = MarkovParameter(states, initial, transition)
        for phase in (0, 2):
            chain.marginal(phase)
        assert chain.states.tolist() == [100.0, 200.0]
        assert chain.initial.tolist() == [1.0, 0.0]
        assert chain.transition.tolist() == [[0.5, 0.5], [0.2, 0.8]]

    def test_a_callers_later_writes_do_not_reach_the_chain(self):
        states, initial, transition = self._arrays()
        chain = MarkovParameter(states, initial, transition)
        untouched = MarkovParameter(*self._arrays())
        first = chain.marginal(1)
        transition[:] = [[0.0, 1.0], [1.0, 0.0]]
        initial[:] = [0.0, 1.0]
        states[:] = [1.0, 2.0]
        assert chain.marginal(1) is first
        for phase in range(4):
            assert chain.marginal(phase) == untouched.marginal(phase)
            assert (
                chain.marginal(phase).probs.tobytes()
                == untouched.marginal(phase).probs.tobytes()
            )

    def test_the_chains_arrays_are_frozen_and_the_callers_are_not(self):
        states, initial, transition = self._arrays()
        chain = MarkovParameter(states, initial, transition)
        chain.marginal(1)
        for mine, theirs in (
            (states, chain.states),
            (initial, chain.initial),
            (transition, chain.transition),
        ):
            assert mine.flags.writeable
            assert not theirs.flags.writeable
            assert not np.shares_memory(mine, theirs)
        assert not np.shares_memory(chain.marginal(1).values, chain.states)


class TestMarginals:
    def test_marginal_zero_is_initial(self, simple_chain):
        m0 = simple_chain.marginal(0)
        assert m0.prob_of(100.0) == pytest.approx(1.0)

    def test_marginal_one_applies_transition(self, simple_chain):
        m1 = simple_chain.marginal(1)
        assert m1.prob_of(100.0) == pytest.approx(0.5)
        assert m1.prob_of(200.0) == pytest.approx(0.5)

    def test_marginal_two_composition(self, simple_chain):
        m2 = simple_chain.marginal(2)
        # p(100) = 0.5*0.5 + 0.5*0.2
        assert m2.prob_of(100.0) == pytest.approx(0.35)

    def test_marginal_cached_and_consistent(self, simple_chain):
        a = simple_chain.marginal(5)
        b = simple_chain.marginal(5)
        assert a == b

    def test_one_distribution_per_phase(self, simple_chain):
        for phase in (3, 0, 3, 1):
            dist = simple_chain.marginal(phase)
            assert simple_chain.marginal(phase) is dist
            vector = simple_chain.initial
            for _ in range(phase):
                vector = vector @ simple_chain.transition
            fresh = DiscreteDistribution(simple_chain.states, vector)
            assert dist.values.tobytes() == fresh.values.tobytes()
            assert dist.probs.tobytes() == fresh.probs.tobytes()
        assert simple_chain.marginal(0) is not simple_chain.marginal(1)

    def test_zero_probability_state_still_dropped(self, simple_chain):
        # Phase 0 puts all mass on the first state.
        assert simple_chain.marginal(0).support() == [100.0]
        assert simple_chain.marginal(1).support() == [100.0, 200.0]

    def test_negative_phase_rejected(self, simple_chain):
        with pytest.raises(ValueError):
            simple_chain.marginal(-1)

    def test_marginals_match_sequence_enumeration(self, simple_chain):
        # Marginal at phase k must equal the k-th coordinate marginal of
        # the full sequence distribution.
        length = 4
        for k in range(length):
            acc = {}
            for seq, p in simple_chain.sequences(length):
                acc[seq[k]] = acc.get(seq[k], 0.0) + p
            marg = simple_chain.marginal(k)
            for v, p in acc.items():
                assert marg.prob_of(v) == pytest.approx(p)

class TestSequences:
    def test_sequence_probabilities_sum_to_one(self, simple_chain):
        for length in (1, 2, 3):
            total = sum(p for _, p in simple_chain.sequences(length))
            assert total == pytest.approx(1.0)

    def test_sequence_count(self, simple_chain):
        # Initial distribution is a point mass on state 100, so only the
        # 2^2 continuations survive pruning.
        seqs = list(simple_chain.sequences(3))
        assert len(seqs) == 4
        uniform_chain = MarkovParameter(
            [100.0, 200.0], [0.5, 0.5], [[0.5, 0.5], [0.2, 0.8]]
        )
        assert len(list(uniform_chain.sequences(3))) == 8

    def test_zero_probability_sequences_pruned(self):
        chain = MarkovParameter(
            [1.0, 2.0], [1.0, 0.0], [[1.0, 0.0], [0.0, 1.0]]
        )
        seqs = list(chain.sequences(3))
        assert len(seqs) == 1
        assert seqs[0][0] == (1.0, 1.0, 1.0)

    def test_empty_sequence(self, simple_chain):
        assert list(simple_chain.sequences(0)) == [((), 1.0)]

    def test_negative_length_rejected(self, simple_chain):
        with pytest.raises(ValueError):
            list(simple_chain.sequences(-1))

    def test_sample_path_length_and_support(self, simple_chain, rng):
        path = simple_chain.sample_path(5, rng)
        assert len(path) == 5
        assert all(v in (100.0, 200.0) for v in path)

    def test_sample_path_empty(self, simple_chain, rng):
        assert simple_chain.sample_path(0, rng) == []

    def test_sample_paths_match_marginals(self, simple_chain, rng):
        n = 20000
        hits = 0
        for _ in range(n):
            path = simple_chain.sample_path(2, rng)
            if path[1] == 200.0:
                hits += 1
        assert hits / n == pytest.approx(
            simple_chain.marginal(1).prob_of(200.0), abs=0.02
        )


class TestStatic:
    def test_static_chain_marginals_constant(self, bimodal_memory):
        chain = MarkovParameter.static(bimodal_memory)
        for k in (0, 1, 5):
            assert chain.marginal(k) == bimodal_memory


class TestFactories:
    def test_random_walk_stays_with_zero_move_prob(self):
        chain = random_walk_chain([1.0, 2.0, 3.0], move_prob=0.0)
        assert np.allclose(chain.transition, np.eye(3))

    def test_random_walk_rows_stochastic(self):
        chain = random_walk_chain([1.0, 2.0, 3.0, 4.0], move_prob=0.6)
        assert np.allclose(chain.transition.sum(axis=1), 1.0)

    def test_random_walk_single_state(self):
        chain = random_walk_chain([5.0], move_prob=0.5)
        assert chain.transition[0, 0] == 1.0

    def test_random_walk_validates_move_prob(self):
        with pytest.raises(ValueError):
            random_walk_chain([1.0, 2.0], move_prob=1.5)

    def test_sticky_chain_marginal_invariant(self, bimodal_memory):
        # The defining property: every phase marginal equals the base
        # distribution regardless of stickiness.
        for stickiness in (0.0, 0.5, 0.95):
            chain = sticky_chain(bimodal_memory, stickiness)
            for k in (0, 1, 3, 7):
                marg = chain.marginal(k)
                for v, p in bimodal_memory.items():
                    assert marg.prob_of(v) == pytest.approx(p, abs=1e-9)

    def test_sticky_chain_full_stickiness_never_moves(self, bimodal_memory):
        chain = sticky_chain(bimodal_memory, 1.0)
        assert np.allclose(chain.transition, np.eye(bimodal_memory.n_buckets))

    def test_sticky_chain_validates(self, bimodal_memory):
        with pytest.raises(ValueError):
            sticky_chain(bimodal_memory, -0.1)
