"""``DiscreteDistribution.__init__`` against the constructor it replaced.

The shipped constructor sorts, merges, clips and drops only where its
own tests say there is something to sort, merge, clip or drop.  Every
input — canonical or not, valid or not, in whatever container — must
still give the four stored arrays of ``reference_constructor.py`` byte
for byte, or raise the same ``DistributionError``.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.core.distributions import DiscreteDistribution, DistributionError

from .reference_constructor import ReferenceDistribution

ARRAYS = ("values", "probs", "cdf_array", "weighted_prefix_array")

#: Few enough support points that duplicates, ±0.0 ties and already
#: ascending draws all come up often.
_POOL = (-7.5, -0.0, 0.0, 1.0, 2.0, 2.0, 3.5, 1e6, 5e-324)
_BAD = (float("nan"), float("inf"), float("-inf"))
#: What gets planted in a valid mass vector: exact zeros of both signs,
#: negatives inside and outside the -1e-9 tolerance, non-finite entries.
_PLANTS = (0.0, -0.0, -1e-10, -1e-9, -1.0000001e-9, -1e-8, -0.5) + _BAD
#: Added to one entry: sums inside and beyond the 1e-6 tolerance.
_DRIFTS = (0.0, 5e-7, -5e-7, 9.9e-7, 1.1e-6, -2e-6, 1e-3)

CONTAINERS = {
    "list": list,
    "tuple": tuple,
    "generator": lambda xs: (x for x in xs),
    "float_array": lambda xs: np.array(xs, dtype=float),
    "readonly_array": lambda xs: _frozen(np.array(xs, dtype=float)),
    "strided_view": lambda xs: np.repeat(np.array(xs, dtype=float), 2)[::2],
}


def _frozen(arr: np.ndarray) -> np.ndarray:
    arr.setflags(write=False)
    return arr


@st.composite
def constructor_args(draw):
    n = draw(st.integers(1, 8))
    values = [draw(st.sampled_from(_POOL)) for _ in range(n)]
    shape = draw(st.sampled_from(("as_drawn", "ascending", "distinct_ascending")))
    if shape != "as_drawn":
        values.sort()
    if shape == "distinct_ascending":
        values = sorted(set(values))
        n = len(values)
    if draw(st.integers(0, 9)) == 0:
        values[draw(st.integers(0, n - 1))] = draw(st.sampled_from(_BAD))

    weights = [draw(st.integers(1, 9)) for _ in range(n)]
    for _ in range(draw(st.integers(0, 2))):
        weights[draw(st.integers(0, n - 1))] = 0
    total = sum(weights) or 1
    probs = [w / total for w in weights]
    for _ in range(draw(st.integers(0, 2))):
        probs[draw(st.integers(0, n - 1))] = draw(st.sampled_from(_PLANTS))
    probs[draw(st.integers(0, n - 1))] += draw(st.sampled_from(_DRIFTS))
    kinds = st.sampled_from(sorted(CONTAINERS))
    return values, probs, draw(kinds), draw(kinds)


def _outcome(cls, values, probs):
    try:
        built = cls(values, probs)
    except DistributionError as exc:
        return "error", str(exc)
    return "arrays", tuple(getattr(built, name).tobytes() for name in ARRAYS)


def _assert_same(values, probs, values_kind="list", probs_kind="list"):
    wrap_v, wrap_p = CONTAINERS[values_kind], CONTAINERS[probs_kind]
    expected = _outcome(ReferenceDistribution, wrap_v(values), wrap_p(probs))
    assert _outcome(DiscreteDistribution, wrap_v(values), wrap_p(probs)) == expected
    return expected


class TestBitwiseParity:
    @given(args=constructor_args())
    @settings(max_examples=600, deadline=None)
    @example(args=([2.0, 1.0], [float("nan"), -0.5], "list", "list"))
    @example(args=([0.0, -0.0, 1.0], [0.25, 0.25, 0.5], "tuple", "float_array"))
    @example(args=([-0.0, 0.0], [-0.0, 1.0], "float_array", "generator"))
    @example(args=([1.0, 2.0], [-0.0, 0.0], "list", "list"))
    def test_same_arrays_or_same_error(self, args):
        _assert_same(*args)

    @pytest.mark.parametrize(
        "values, probs, message",
        [
            ([1.0, float("nan")], [0.5, 0.5], "support points must be finite"),
            ([1.0, float("inf")], [float("nan"), 0.5], "support points must be finite"),
            ([1.0, 2.0], [1.0 + 1e-8, -1e-8], "probabilities must be non-negative"),
            ([1.0, 2.0], [float("nan"), -1.0], "probabilities must be non-negative"),
            ([1.0, 2.0], [float("nan"), 0.5], "probabilities must sum to 1, got nan"),
            ([1.0, 2.0], [float("inf"), 0.5], "probabilities must sum to 1, got inf"),
            ([1.0, 2.0], [0.5, 0.75], "probabilities must sum to 1, got 1.25"),
            ([], [], "a distribution needs at least one support point"),
        ],
    )
    def test_every_check_still_raises(self, values, probs, message):
        assert _assert_same(values, probs) == ("error", message)

    def test_within_tolerance_negative_is_clipped_not_kept(self):
        kind, arrays = _assert_same([1.0, 2.0, 3.0], [0.5, -1e-10, 0.5])
        assert kind == "arrays"
        assert np.frombuffer(arrays[0]).tolist() == [1.0, 3.0]

    def test_int_arrays(self):
        ints = np.array([3, 1, 2, 1])
        for probs in ([0.25] * 4, np.array([0, 0, 1, 0])):
            assert _outcome(DiscreteDistribution, ints, probs) == _outcome(
                ReferenceDistribution, ints, probs
            )

    def test_shape_errors_name_both_shapes(self):
        for values, probs in (([1.0, 2.0], [1.0]), (np.ones((2, 2)), np.ones((2, 2)))):
            assert _outcome(DiscreteDistribution, values, probs) == _outcome(
                ReferenceDistribution, values, probs
            )


class TestOwnership:
    """What the unconditional sort used to guarantee as a side effect."""

    @pytest.mark.parametrize(
        "values, probs",
        [
            ([1.0, 2.0, 3.0], [0.2, 0.3, 0.5]),  # canonical: nothing to sort
            ([3.0, 1.0, 2.0], [0.2, 0.3, 0.5]),  # sorted
            ([1.0, 1.0, 2.0], [0.2, 0.3, 0.5]),  # merged
            ([1.0, 2.0, 3.0], [0.5, 0.0, 0.5]),  # a zero mass dropped
        ],
    )
    def test_a_callers_arrays_stay_the_callers(self, values, probs):
        vals, prbs = np.array(values), np.array(probs)
        d = DiscreteDistribution(vals, prbs)
        before = tuple(getattr(d, name).tobytes() for name in ARRAYS)
        for mine, theirs in ((vals, d.values), (prbs, d.probs)):
            assert mine.flags.writeable
            assert theirs.base is not mine and not np.shares_memory(mine, theirs)
        vals[:] = -1.0
        prbs[:] = 0.0
        assert tuple(getattr(d, name).tobytes() for name in ARRAYS) == before

    @given(args=constructor_args())
    @settings(max_examples=100, deadline=None)
    def test_stored_arrays_are_read_only(self, args):
        values, probs, _, _ = args
        try:
            d = DiscreteDistribution(np.array(values), np.array(probs))
        except DistributionError:
            return
        for name in ARRAYS:
            stored = getattr(d, name)
            assert not stored.flags.writeable
            with pytest.raises(ValueError):
                stored[0] = 0.0

    def test_a_view_of_a_callers_array_is_copied_too(self):
        base = np.array([1.0, 2.0, 3.0])
        d = DiscreteDistribution(base[:], np.array([0.2, 0.3, 0.5]))
        base[0] = 9.0
        assert d.values.tolist() == [1.0, 2.0, 3.0]

    def test_transform_outputs_share_nothing_with_their_source(self):
        d = DiscreteDistribution([1.0, 2.0, 4.0], [0.2, 0.3, 0.5])
        for out in (d.scale(2.0), d.shift(1.0), d.clip(lo=0.0), d.clip()):
            assert not np.shares_memory(out.values, d.values)
            assert not out.values.flags.writeable
