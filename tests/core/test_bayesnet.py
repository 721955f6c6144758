"""Tests for the discrete Bayesian network."""

from __future__ import annotations

import pytest

from repro.core.bayesnet import BayesNetError, DiscreteBayesNet


@pytest.fixture
def load_net() -> DiscreteBayesNet:
    """load -> (M, sel): the canonical correlated-environment net."""
    net = DiscreteBayesNet()
    net.add_node("load", [0.0, 1.0], probs=[0.6, 0.4])
    net.add_node(
        "M", [400.0, 2000.0], parents=["load"],
        cpt={(0.0,): [0.1, 0.9], (1.0,): [0.85, 0.15]},
    )
    net.add_node(
        "sel", [1e-8, 4e-7], parents=["load"],
        cpt={(0.0,): [0.8, 0.2], (1.0,): [0.3, 0.7]},
    )
    return net


class TestConstruction:
    def test_duplicate_node_rejected(self, load_net):
        with pytest.raises(BayesNetError):
            load_net.add_node("load", [1.0], probs=[1.0])

    def test_unknown_parent_rejected(self):
        net = DiscreteBayesNet()
        with pytest.raises(BayesNetError):
            net.add_node("x", [1.0], parents=["ghost"], cpt={})

    def test_root_needs_probs(self):
        net = DiscreteBayesNet()
        with pytest.raises(BayesNetError):
            net.add_node("x", [1.0, 2.0])

    def test_child_needs_cpt(self):
        net = DiscreteBayesNet()
        net.add_node("a", [0.0, 1.0], probs=[0.5, 0.5])
        with pytest.raises(BayesNetError):
            net.add_node("b", [1.0, 2.0], parents=["a"], probs=[0.5, 0.5])

    def test_incomplete_cpt_rejected(self):
        net = DiscreteBayesNet()
        net.add_node("a", [0.0, 1.0], probs=[0.5, 0.5])
        with pytest.raises(BayesNetError):
            net.add_node(
                "b", [1.0, 2.0], parents=["a"], cpt={(0.0,): [0.5, 0.5]}
            )

    def test_bad_probability_rows(self):
        net = DiscreteBayesNet()
        with pytest.raises(BayesNetError):
            net.add_node("a", [0.0, 1.0], probs=[0.5, 0.6])
        with pytest.raises(BayesNetError):
            net.add_node("a", [0.0, 1.0], probs=[1.5, -0.5])

    def test_duplicate_values_rejected(self):
        net = DiscreteBayesNet()
        with pytest.raises(BayesNetError):
            net.add_node("a", [1.0, 1.0], probs=[0.5, 0.5])


class TestInference:
    def test_joint_sums_to_one(self, load_net):
        assert sum(p for _, p in load_net.joint()) == pytest.approx(1.0)

    def test_joint_size(self, load_net):
        assert len(load_net.joint()) == 8  # 2 x 2 x 2, none zero

    def test_marginal_root(self, load_net):
        m = load_net.marginal("load")
        assert m.prob_of(1.0) == pytest.approx(0.4)

    def test_marginal_child_total_probability(self, load_net):
        m = load_net.marginal("M")
        want = 0.6 * 0.1 + 0.4 * 0.85  # P(M=400)
        assert m.prob_of(400.0) == pytest.approx(want)

    def test_conditional_updates(self, load_net):
        cond = load_net.condition({"load": 1.0}).marginal("M")
        assert cond.prob_of(400.0) == pytest.approx(0.85)

    def test_conditional_on_child_inverts(self, load_net):
        # Observing low memory raises the probability of high load.
        posterior = load_net.condition({"M": 400.0}).marginal("load")
        prior = load_net.marginal("load")
        assert posterior.prob_of(1.0) > prior.prob_of(1.0)

    def test_conditional_zero_evidence(self, load_net):
        with pytest.raises(BayesNetError):
            load_net.condition({"load": 7.0})

    def test_condition_returns_normalised_joint(self, load_net):
        cond = load_net.condition({"load": 1.0})
        assert sum(p for _, p in cond.joint()) == pytest.approx(1.0)
        assert all(a["load"] == 1.0 for a, _ in cond.joint())

    def test_expectation_linearity(self, load_net):
        e_m = load_net.expectation(lambda a: a["M"])
        assert e_m == pytest.approx(load_net.marginal("M").mean())

    def test_mutual_dependence_detects_correlation(self, load_net):
        assert load_net.mutual_dependence("M", "sel") > 0.05

    def test_mutual_dependence_zero_for_independent(self):
        net = DiscreteBayesNet()
        net.add_node("a", [0.0, 1.0], probs=[0.5, 0.5])
        net.add_node("b", [0.0, 1.0], probs=[0.3, 0.7])
        assert net.mutual_dependence("a", "b") == pytest.approx(0.0)

    def test_sampling_matches_marginal(self, load_net, rng):
        hits = sum(
            1 for _ in range(5000) if load_net.sample(rng)["M"] == 400.0
        )
        assert hits / 5000 == pytest.approx(
            load_net.marginal("M").prob_of(400.0), abs=0.03
        )

    def test_zero_probability_branches_pruned(self):
        net = DiscreteBayesNet()
        net.add_node("a", [0.0, 1.0], probs=[1.0, 0.0])
        net.add_node(
            "b", [10.0, 20.0], parents=["a"],
            cpt={(0.0,): [0.5, 0.5], (1.0,): [0.5, 0.5]},
        )
        assert len(net.joint()) == 2
        assert all(a["a"] == 0.0 for a, _ in net.joint())
