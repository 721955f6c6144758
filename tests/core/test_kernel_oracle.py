"""Differential oracle suite: vectorized kernel vs. pure-python reference.

``reference_kernel.py`` is the behavioral spec — plain loops, no numpy.
Hypothesis generates adversarial supports (duplicates, point masses,
near-zero masses, wide magnitude spreads) and every kernel operation is
checked against the reference within the sanctioned tolerances from
``repro.core.floats``.  A kernel "optimization" that changes semantics
fails here even if every downstream test still passes by luck.
"""

from __future__ import annotations

import itertools
import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.core.bayesnet import DiscreteBayesNet
from repro.core.distributions import DiscreteDistribution
from repro.core.markov import MarkovParameter
from repro.core.floats import (
    COST_REL_TOL,
    PROB_ABS_TOL,
    costs_close,
    probs_close,
)
from repro.costmodel.expected_cost import (
    FAST_METHODS,
    expected_join_cost_fast,
    expected_join_cost_naive,
    expected_join_costs_batched,
)
from repro.costmodel.model import CostModel
from repro.plans.properties import JoinMethod

from . import reference_kernel as ref

_FAST = sorted(FAST_METHODS, key=lambda m: m.value)

# ----------------------------------------------------------------------
# Strategies
# ----------------------------------------------------------------------

#: support values: positive, spanning several decades, with integer
#: snapping so duplicate support points actually occur.
_value = st.one_of(
    st.integers(min_value=1, max_value=50).map(float),
    st.floats(min_value=0.5, max_value=1e6, allow_nan=False,
              allow_infinity=False),
)

#: raw masses: mostly ordinary weights, sometimes near-zero slivers that
#: stress the negligible-mass guards.
_mass = st.one_of(
    st.integers(min_value=1, max_value=100).map(float),
    st.floats(min_value=1e-13, max_value=1.0, allow_nan=False),
)


@st.composite
def supports(draw, max_size: int = 12):
    n = draw(st.integers(min_value=1, max_value=max_size))
    values = draw(st.lists(_value, min_size=n, max_size=n))
    masses = draw(st.lists(_mass, min_size=n, max_size=n))
    total = sum(masses)
    return values, [m / total for m in masses]


def make_pair(support):
    """The same raw input as a kernel distribution and a reference pair."""
    values, probs = support
    return DiscreteDistribution(values, probs), ref.normalize(values, probs)


def assert_same_support(dist: DiscreteDistribution, expected) -> None:
    exp_v, exp_p = expected
    assert dist.n_buckets == len(exp_v)
    for got, want in zip(dist.values, exp_v):
        assert got == pytest.approx(want, rel=COST_REL_TOL, abs=1e-12)
    for got, want in zip(dist.probs, exp_p):
        assert got == pytest.approx(want, abs=PROB_ABS_TOL)


# ----------------------------------------------------------------------
# Canonicalization and point queries
# ----------------------------------------------------------------------


class TestCanonicalizationOracle:
    @given(supports())
    @settings(max_examples=120, deadline=None)
    def test_constructor_matches_reference_normalize(self, support):
        dist, expected = make_pair(support)
        assert_same_support(dist, expected)

    def test_point_mass_survives_canonicalization(self):
        dist, expected = make_pair(([7.0, 7.0, 7.0], [0.25, 0.25, 0.5]))
        assert_same_support(dist, expected)
        assert dist.is_point_mass()

    def test_near_zero_mass_bucket_kept(self):
        # 1e-13 is tiny but real mass: both sides must keep the bucket.
        dist, expected = make_pair(([1.0, 2.0], [1.0 - 1e-13, 1e-13]))
        assert_same_support(dist, expected)

    @given(supports(), _value)
    @settings(max_examples=120, deadline=None)
    def test_cdf_sf_prob_of_match_reference(self, support, x):
        dist, (rv, rp) = make_pair(support)
        assert probs_close(dist.cdf(x), ref.cdf(rv, rp, x))
        assert probs_close(1.0 - dist.cdf(x), ref.sf(rv, rp, x))
        assert probs_close(dist.prob_of(x), ref.prob_of(rv, rp, x))

    @given(supports())
    @settings(max_examples=80, deadline=None)
    def test_expectation_matches_reference(self, support):
        dist, (rv, rp) = make_pair(support)
        assert costs_close(dist.expectation(), ref.expectation(rv, rp))
        fn = lambda v: 2.0 * v + 1.0  # noqa: E731
        assert costs_close(dist.expectation(fn), ref.expectation(rv, rp, fn))

    @given(supports())
    @settings(max_examples=80, deadline=None)
    def test_survival_tables_match_reference_sf(self, support):
        dist, (rv, rp) = make_pair(support)
        tail_incl, tail_excl = dist.sf_arrays()
        for i, v in enumerate(dist.values):
            want_ge = ref.sf(rv, rp, v) + ref.prob_of(rv, rp, v)
            assert probs_close(float(tail_incl[i]), want_ge)
            assert probs_close(float(tail_excl[i]), ref.sf(rv, rp, v))


# ----------------------------------------------------------------------
# Binary operations
# ----------------------------------------------------------------------


class TestBinaryOperationOracle:
    @given(supports(max_size=8), supports(max_size=8))
    @settings(max_examples=80, deadline=None)
    def test_convolve_matches_reference(self, sa, sb):
        da, ra = make_pair(sa)
        db, rb = make_pair(sb)
        assert_same_support(da.convolve(db), ref.convolve(ra, rb))

    @given(supports(max_size=8), supports(max_size=8))
    @settings(max_examples=80, deadline=None)
    def test_multiply_matches_reference(self, sa, sb):
        da, ra = make_pair(sa)
        db, rb = make_pair(sb)
        assert_same_support(da.multiply(db), ref.multiply(ra, rb))

    @given(supports(max_size=8), supports(max_size=8),
           st.floats(min_value=0.0, max_value=1.0))
    @settings(max_examples=80, deadline=None)
    def test_mixture_matches_reference(self, sa, sb, w):
        da, ra = make_pair(sa)
        db, rb = make_pair(sb)
        assert_same_support(
            da.mixture(db, w), ref.mixture([(ra, w), (rb, 1.0 - w)])
        )


# ----------------------------------------------------------------------
# Rebucketing
# ----------------------------------------------------------------------


class TestRebucketOracle:
    @given(supports(), st.integers(min_value=1, max_value=8),
           st.sampled_from(["equidepth", "equiwidth"]))
    @settings(max_examples=120, deadline=None)
    def test_rebucket_matches_reference(self, support, k, strategy):
        dist, (rv, rp) = make_pair(support)
        got = dist.rebucket(k, strategy=strategy)
        want = ref.rebucket(rv, rp, k, strategy=strategy)
        assert_same_support(got, want)

    @given(supports(), st.integers(min_value=1, max_value=8))
    @settings(max_examples=80, deadline=None)
    def test_rebucket_preserves_mean_like_reference(self, support, k):
        dist, (rv, rp) = make_pair(support)
        got = dist.rebucket(k)
        want_v, want_p = ref.rebucket(rv, rp, k)
        assert costs_close(got.mean(), ref.expectation(want_v, want_p))


# ----------------------------------------------------------------------
# Expected join cost (fast paths and batched evaluator)
# ----------------------------------------------------------------------

_MEMORY_SUPPORTS = [
    ([2000.0], [1.0]),
    ([2000.0, 300.0], [0.7, 0.3]),
    ([5000.0, 900.0, 40.0], [0.5, 0.3, 0.2]),
]


class TestExpectedCostOracle:
    @given(supports(max_size=6), supports(max_size=6),
           st.sampled_from(_FAST),
           st.sampled_from(range(len(_MEMORY_SUPPORTS))))
    @settings(max_examples=60, deadline=None)
    def test_fast_path_matches_reference_triple_loop(
        self, sl, sr, method, mem_idx
    ):
        cm = CostModel(count_evaluations=False)
        dl, rl = make_pair(sl)
        dr, rr = make_pair(sr)
        dm, rm = make_pair(_MEMORY_SUPPORTS[mem_idx])

        def cost_fn(l, r, m):
            return cm.join_cost(method, l, r, m)

        want = ref.expected_join_cost(cost_fn, rl, rr, rm)
        got = expected_join_cost_fast(method, dl, dr, dm)
        assert got == pytest.approx(want, rel=1e-6, abs=1e-6)

    @given(st.lists(st.tuples(supports(max_size=5), supports(max_size=5)),
                    min_size=1, max_size=6),
           st.sampled_from(range(len(_MEMORY_SUPPORTS))))
    @settings(max_examples=40, deadline=None)
    def test_batched_matches_reference_per_request(self, pairs, mem_idx):
        cm = CostModel(count_evaluations=False)
        dm, rm = make_pair(_MEMORY_SUPPORTS[mem_idx])
        requests = []
        wants = []
        for i, (sl, sr) in enumerate(pairs):
            method = _FAST[i % len(_FAST)]
            dl, rl = make_pair(sl)
            dr, rr = make_pair(sr)
            requests.append((method, dl, dr))
            wants.append(ref.expected_join_cost(
                lambda l, r, m, _mth=method: cm.join_cost(_mth, l, r, m),
                rl, rr, rm,
            ))
        got = expected_join_costs_batched(requests, dm)
        assert len(got) == len(wants)
        for g, w in zip(got, wants):
            assert g == pytest.approx(w, rel=1e-6, abs=1e-6)

    @given(supports(max_size=5), supports(max_size=5),
           st.sampled_from(_FAST))
    @settings(max_examples=40, deadline=None)
    # Negligible mass is not negligible contribution: the 1.1e-15 sliver
    # sits on a 9e5-page inner, so its nested-loop term is weighted by
    # a*b ~ 7e10 (a mass guard on the suffix used to zero it).
    @example(
        sl=([79624.0], [1.0]),
        sr=([0.5, 918605.0, 0.5],
            [0.009355332539547533, 1.0886205136928037e-15,
             0.9906446674604514]),
        method=JoinMethod.NESTED_LOOP,
    )
    def test_fast_path_matches_kernel_naive_route(self, sl, sr, method):
        cm = CostModel(count_evaluations=False)
        dl, _ = make_pair(sl)
        dr, _ = make_pair(sr)
        dm = DiscreteDistribution([2000.0, 300.0], [0.7, 0.3])
        naive = expected_join_cost_naive(cm.join_cost, method, dl, dr, dm)
        fast = expected_join_cost_fast(method, dl, dr, dm)
        assert fast == pytest.approx(naive, rel=COST_REL_TOL)

    @given(supports(max_size=5), supports(max_size=5),
           st.sampled_from(_FAST))
    @settings(max_examples=40, deadline=None)
    def test_batched_bitwise_equals_single(self, sl, sr, method):
        # Batch width and padding must never leak into the result: a
        # request evaluated alone and inside a mixed batch agrees to the
        # last ulp (sequential cumsum accumulation is the contract).
        dl, _ = make_pair(sl)
        dr, _ = make_pair(sr)
        dm = DiscreteDistribution([2000.0, 300.0], [0.7, 0.3])
        single = expected_join_cost_fast(method, dl, dr, dm)
        padded = [(m, dl, dr) for m in _FAST] + [(method, dl, dr)]
        batch = expected_join_costs_batched(padded, dm)
        assert math.isclose(batch[-1], single, rel_tol=0.0, abs_tol=0.0)
        assert math.isclose(
            batch[_FAST.index(method)], single, rel_tol=0.0, abs_tol=0.0
        )

    def test_batched_rejects_unknown_method(self):
        d = DiscreteDistribution([10.0], [1.0])
        with pytest.raises(ValueError):
            expected_join_costs_batched(
                [(JoinMethod.HYBRID_HASH, d, d)], d
            )


# ----------------------------------------------------------------------
# Markov chains: marginals and brute-force sequence enumeration
# ----------------------------------------------------------------------

#: probability rows with real zeros, so the zero-branch pruning in both
#: the sequence table and the reference walk actually triggers.
def _prob_row(draw, n: int):
    masses = draw(
        st.lists(
            st.one_of(st.just(0.0), st.floats(min_value=0.01, max_value=1.0)),
            min_size=n, max_size=n,
        ).filter(lambda m: sum(m) > 0.0)
    )
    total = sum(masses)
    return [m / total for m in masses]


@st.composite
def markov_chains(draw, max_states: int = 3):
    n = draw(st.integers(min_value=1, max_value=max_states))
    states = sorted(draw(st.lists(
        st.floats(min_value=1.0, max_value=1e4, allow_nan=False),
        min_size=n, max_size=n, unique=True,
    )))
    initial = _prob_row(draw, n)
    transition = [_prob_row(draw, n) for _ in range(n)]
    return states, initial, transition


class TestMarkovOracle:
    @given(markov_chains(), st.integers(min_value=0, max_value=5))
    @settings(max_examples=80, deadline=None)
    def test_marginal_matches_reference(self, spec, phase):
        states, initial, transition = spec
        chain = MarkovParameter(states, initial, transition)
        marginal = chain.marginal(phase)
        got = [marginal.prob_of(state) for state in states]
        want = ref.markov_marginal(initial, transition, phase)
        for g, w in zip(got, want):
            assert float(g) == pytest.approx(w, rel=COST_REL_TOL, abs=PROB_ABS_TOL)

    @given(markov_chains(), st.integers(min_value=0, max_value=3))
    @settings(max_examples=60, deadline=None)
    def test_sequences_bitwise_match_reference_walk(self, spec, length):
        # The vectorized table promises *bitwise* parity with the old
        # scalar walk (same left-to-right step multiplies), so this one
        # asserts exact equality, not closeness.
        states, initial, transition = spec
        chain = MarkovParameter(states, initial, transition)
        got = list(chain.sequences(length))
        want = ref.markov_sequences(states, initial, transition, length)
        assert len(got) == len(want)
        for (gv, gp), (wv, wp) in zip(got, want):
            assert gv == wv
            assert math.isclose(gp, wp, rel_tol=0.0, abs_tol=0.0)

    def test_sequence_table_empty_length(self):
        chain = MarkovParameter([1.0, 2.0], [0.5, 0.5],
                                [[0.5, 0.5], [0.5, 0.5]])
        values, probs = chain.sequence_table(0)
        assert values.shape == (1, 0)
        assert probs.tolist() == [1.0]


# ----------------------------------------------------------------------
# Bayes nets: joint enumeration and batched expectation
# ----------------------------------------------------------------------


@st.composite
def bayes_nets(draw, max_nodes: int = 4):
    """A small random DAG plus its reference spec tuple list.

    Each node takes up to two of the previously declared nodes as
    parents, so chains, colliders and mixed shapes all occur; cpt rows
    reuse the zero-bearing probability rows to exercise the zero-skip.
    """
    n_nodes = draw(st.integers(min_value=1, max_value=max_nodes))
    net = DiscreteBayesNet()
    spec = []
    names = []
    for i in range(n_nodes):
        name = f"x{i}"
        n_vals = draw(st.integers(min_value=2, max_value=3))
        values = [float(10 * (i + 1) + k) for k in range(n_vals)]
        max_parents = min(2, len(names))
        n_parents = draw(st.integers(min_value=0, max_value=max_parents))
        parents = names[-n_parents:] if n_parents else []
        if parents:
            parent_values = [
                next(s[1] for s in spec if s[0] == p) for p in parents
            ]
            cpt = {
                tuple(combo): _prob_row(draw, n_vals)
                for combo in itertools.product(*parent_values)
            }
            net.add_node(name, values, parents=parents, cpt=cpt)
            spec.append((name, values, tuple(parents), cpt))
        else:
            probs = _prob_row(draw, n_vals)
            net.add_node(name, values, probs=probs)
            spec.append((name, values, (), {(): probs}))
        names.append(name)
    return net, spec


class TestBayesNetOracle:
    @given(bayes_nets())
    @settings(max_examples=60, deadline=None)
    def test_joint_bitwise_matches_reference_walk(self, pair):
        # joint_arrays performs the walk's exact multiply sequence per
        # assignment, so parity here is bitwise as well.
        net, spec = pair
        got = net.joint()
        want = ref.bayesnet_joint(spec)
        assert len(got) == len(want)
        for (ga, gp), (wa, wp) in zip(got, want):
            assert ga == wa
            assert math.isclose(gp, wp, rel_tol=0.0, abs_tol=0.0)

    @given(bayes_nets())
    @settings(max_examples=40, deadline=None)
    def test_expectation_many_bitwise_matches_reference(self, pair):
        net, spec = pair
        values, _probs = net.joint_arrays()
        joint = ref.bayesnet_joint(spec)
        for j, name in enumerate(net.names):
            got = float(net.expectation_many(values[:, j]))
            want = ref.bayesnet_expectation(joint, lambda a: a[name])
            assert math.isclose(got, want, rel_tol=0.0, abs_tol=0.0)

    @given(bayes_nets())
    @settings(max_examples=40, deadline=None)
    def test_expectation_many_matrix_rows_equal_scalar_calls(self, pair):
        net, _spec = pair
        values, probs = net.joint_arrays()
        rows = np.vstack([values[:, j] for j in range(values.shape[1])])
        batched = net.expectation_many(rows)
        for j in range(rows.shape[0]):
            single = float(net.expectation_many(rows[j]))
            assert math.isclose(
                float(batched[j]), single, rel_tol=0.0, abs_tol=0.0
            )

    def test_empty_net_joint(self):
        net = DiscreteBayesNet()
        values, probs = net.joint_arrays()
        assert values.shape == (1, 0)
        assert probs.tolist() == [1.0]
        assert ref.bayesnet_joint([]) == [({}, 1.0)]
