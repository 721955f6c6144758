"""Expected join/sort costs over parameter distributions.

Two routes to ``E[Φ]`` when relation sizes, selectivities *and* memory are
all uncertain (Section 3.6):

* :func:`expected_join_cost_naive` — the generic triple loop over the
  memory, left-size and right-size buckets: ``b_M · b_L · b_R``
  evaluations of the cost formula.
* the ``expected_*_cost`` fast paths — the paper's
  ``O(b_M + b_L + b_R)`` algorithms for sort-merge (Section 3.6.1) and
  nested loop (Section 3.6.2), extended here to Grace hash.  They exploit
  that after integrating memory out analytically, the per-pair cost
  factorises into prefix/suffix sums over one size distribution.

The two routes agree within the relative bound stated in
:mod:`repro.core.floats` (they add the same terms in another order);
experiment E7 checks the agreement and measures the speedup.

Batched evaluation
------------------
The fast paths are implemented as *one* array kernel over a whole batch
of ``(method, left, right)`` requests: operand supports are padded into
2-d arrays, the survival/prefix lookups become ``searchsorted`` +
``take_along_axis`` gathers, and each pair's bucket contributions are
reduced with a per-row ``np.cumsum`` — a strictly sequential,
left-to-right summation, so a pair's cost is bit-identical whether it
is evaluated alone or inside a batch of any size (exact-0.0 padding
terms cannot perturb a sequential float sum).  The single-pair public
functions route through the batch kernel with ``n = 1``; the DP engine
feeds a whole level's candidate partitions through
:func:`expected_join_costs_batched` in one shot (the C7
``O(b_M + b_|A| + b_|B|)`` bound, amortised across candidates).
"""

from __future__ import annotations

from typing import Callable, List, Optional, Sequence, Tuple

import numpy as np

from ..core.distributions import DiscreteDistribution
from ..plans.properties import JoinMethod

__all__ = [
    "expected_join_cost_naive",
    "expected_join_cost_naive_model",
    "expected_sort_merge_cost",
    "expected_nested_loop_cost",
    "expected_grace_hash_cost",
    "expected_join_cost_fast",
    "expected_join_costs_batched",
    "PaddedBatch",
    "NaiveGrid",
    "expected_external_sort_cost",
    "expected_external_sort_cost_model",
    "FAST_METHODS",
]

#: Methods for which a linear-time expected-cost path exists.
FAST_METHODS = frozenset(
    (JoinMethod.SORT_MERGE, JoinMethod.NESTED_LOOP, JoinMethod.GRACE_HASH)
)

#: One fast-path request: (method, left pages dist, right pages dist).
BatchRequest = Tuple[
    JoinMethod, DiscreteDistribution, DiscreteDistribution
]


def expected_join_cost_naive(
    cost_fn: Callable[[JoinMethod, float, float, float], float],
    method: JoinMethod,
    left: DiscreteDistribution,
    right: DiscreteDistribution,
    memory: DiscreteDistribution,
) -> float:
    """``E[Φ(method; L, R, M)]`` by enumerating every bucket triple.

    ``cost_fn`` is called once per ``(l, r, m)`` combination —
    ``b_L·b_R·b_M`` evaluations, the baseline the fast paths beat.
    """
    total = 0.0
    for l, pl in left.items():
        for r, pr in right.items():
            plr = pl * pr
            for m, pm in memory.items():
                total += plr * pm * cost_fn(method, l, r, m)
    return total


def expected_join_cost_naive_model(
    cost_model,
    method: JoinMethod,
    left: DiscreteDistribution,
    right: DiscreteDistribution,
    memory: DiscreteDistribution,
) -> float:
    """Vectorized :func:`expected_join_cost_naive` over a cost model.

    Enumerates the same ``b_L·b_R·b_M`` grid in the same (l, r, m) order
    and accumulates left to right (the last entry of an ``np.cumsum``),
    so the value and the model's ``eval_count`` accounting are identical
    to the scalar loop over ``cost_model.join_cost`` — just computed as
    one array op.  The per-pair reference of :meth:`NaiveGrid.costs`.
    """
    lv, lp = left.values, left.probs
    rv, rp = right.values, right.probs
    mv, mp = memory.values, memory.probs
    shape = (lv.size, rv.size, mv.size)
    grid_l = np.broadcast_to(lv[:, None, None], shape).ravel()
    grid_r = np.broadcast_to(rv[None, :, None], shape).ravel()
    grid_m = np.broadcast_to(mv[None, None, :], shape).ravel()
    costs = cost_model.join_cost_many(method, grid_l, grid_r, grid_m)
    probs = ((lp[:, None] * rp[None, :])[:, :, None] * mp[None, None, :]).ravel()
    return float(np.cumsum(probs * costs)[-1])


class NaiveGrid:
    """The ``b_L·b_R·b_M`` grids of many ``(left, right)`` distribution
    pairs under one memory, laid end to end and addressed by integer
    arithmetic into the concatenated supports: a DP column's operands
    and ``(p_l·p_r)·p_m`` weights, built once, costed per join method.
    """

    def __init__(self, pairs: Sequence[Tuple], memory: DiscreteDistribution):
        lefts, rights = zip(*pairs)
        n_m = memory.values.size
        n_l = np.array([d.values.size for d in lefts])
        n_r = np.array([d.values.size for d in rights])
        sizes = n_l * n_r * n_m
        self.row = row = np.repeat(np.arange(len(pairs)), sizes)
        self.col = np.arange(sizes.sum()) - np.repeat(np.cumsum(sizes) - sizes, sizes)
        in_pair, m = np.divmod(self.col, n_m)
        l, r = np.divmod(in_pair, n_r[row])
        l += (np.cumsum(n_l) - n_l)[row]
        r += (np.cumsum(n_r) - n_r)[row]
        self.left = np.concatenate([d.values for d in lefts])[l]
        self.right = np.concatenate([d.values for d in rights])[r]
        self.memory = memory.values[m]
        self.probs = (
            np.concatenate([d.probs for d in lefts])[l]
            * np.concatenate([d.probs for d in rights])[r]
        ) * memory.probs[m]
        self.shape = (len(pairs), sizes.max())

    def costs(self, cost_model, method: JoinMethod) -> List[float]:
        """Each pair's expectation under ``method``: one formula call, its
        terms summed along a zero-padded row by :func:`_row_sums`."""
        costs = cost_model.join_cost_many(method, self.left, self.right, self.memory)
        terms = np.zeros(self.shape)
        terms[self.row, self.col] = self.probs * costs
        return _row_sums(terms).tolist()


# ----------------------------------------------------------------------
# Shared machinery: survival-function lookups and prefix tables
# ----------------------------------------------------------------------


class _SurvivalTable:
    """O(b_M) preprocessing for O(log b_M) ``Pr(M > x)`` / ``Pr(M >= x)``.

    The paper amortises this table across all dag nodes.  Here the
    amortisation lives on the memory distribution: its suffix sums are
    computed once per instance
    (:meth:`~repro.core.distributions.DiscreteDistribution.sf_arrays`),
    so a table is two slices of them and nothing memoizes the table.
    """

    __slots__ = ("values", "tail_excl", "tail_incl")

    def __init__(self, memory: DiscreteDistribution):
        self.values = memory.values
        # tail_incl[i] = Pr(M >= values[i]); tail_excl[i] = Pr(M > values[i]).
        self.tail_incl, self.tail_excl = memory.sf_arrays()

    def prob_gt_many(self, xs: np.ndarray) -> np.ndarray:
        """``Pr(M > x)`` for each threshold ``x`` in ``xs``."""
        idx = np.searchsorted(self.values, xs, side="right")
        safe = np.minimum(idx, self.values.size - 1)
        return np.where(idx >= self.values.size, 0.0, self.tail_incl[safe])

    def prob_ge_many(self, xs: np.ndarray) -> np.ndarray:
        """``Pr(M >= x)`` for each threshold ``x`` in ``xs``."""
        idx = np.searchsorted(self.values, xs, side="left")
        safe = np.minimum(idx, self.values.size - 1)
        return np.where(idx >= self.values.size, 0.0, self.tail_incl[safe])


class PaddedBatch:
    """A batch of distributions padded into rectangular arrays.

    ``values``/``pmf``/``cdf``/``wpre`` are (n, width) with rows padded by
    exact zeros past each distribution's buckets; ``valid`` masks the
    live entries.  Padding with zero *mass* means every kernel
    contribution computed at a padded slot multiplies to exactly 0.0, so
    sequential row reductions are unaffected by the batch width: a DP
    column builds one per side and every join method reads its rows.
    """

    __slots__ = ("values", "pmf", "cdf", "wpre", "valid")

    def __init__(self, dists: Sequence[DiscreteDistribution]):
        counts = np.array([d.n_buckets for d in dists], dtype=np.intp)
        self.valid = valid = np.arange(counts.max()) < counts[:, None]
        for name, part in (("values", "values"), ("pmf", "probs"),
                           ("cdf", "cdf_array"), ("wpre", "weighted_prefix_array")):
            padded = np.zeros(valid.shape)
            padded[valid] = np.concatenate([getattr(d, part) for d in dists])
            setattr(self, name, padded)

    def take(self, rows: List[int]) -> "PaddedBatch":
        """These ``rows`` (ascending, distinct) of the batch, at its width."""
        if len(rows) == len(self.valid):
            return self
        part = object.__new__(PaddedBatch)
        for name in self.__slots__:
            setattr(part, name, getattr(self, name)[rows])
        return part


def _rank(small: PaddedBatch, queries: np.ndarray, include_equal: bool) -> np.ndarray:
    """Per (row, query) count of live small-side values <=/ < the query.

    Equivalent to a per-row ``searchsorted`` (the supports are sorted),
    computed as a masked comparison count so one call ranks every query
    of every pair at once.
    """
    if include_equal:
        cmp = small.values[:, None, :] <= queries[:, :, None]
    else:
        cmp = small.values[:, None, :] < queries[:, :, None]
    cmp &= small.valid[:, None, :]
    return cmp.sum(axis=2)


def _gather(prefix: np.ndarray, idx: np.ndarray) -> np.ndarray:
    """``prefix[idx - 1]`` per row, exact 0.0 where ``idx == 0``."""
    safe = np.maximum(idx - 1, 0)
    out = np.take_along_axis(prefix, safe, axis=1)
    return np.where(idx > 0, out, 0.0)


def _suffix_sums(x: np.ndarray) -> np.ndarray:
    """Per-row right-to-left running sums: column ``k`` is ``Σ_{j>=k} x[j]``.

    One extra trailing column holds the empty suffix, an exact 0.0 — as
    is every suffix that starts in the zero padding, so (like
    ``DiscreteDistribution.sf_arrays`` for memory) there is no
    ``1 - cdf`` cancellation for a caller to guard against, and a live
    entry's value does not depend on the batch width.
    """
    out = np.zeros((x.shape[0], x.shape[1] + 1))
    out[:, :-1] = np.cumsum(x[:, ::-1], axis=1)[:, ::-1]
    return out


def _row_sums(contrib: np.ndarray) -> np.ndarray:
    """Strictly sequential per-row sums (bit-stable under padding).

    ``np.cumsum`` accumulates left-to-right one element at a time, and
    adding an exact 0.0 never changes a float, so interleaving padding
    zeros anywhere in a row leaves the row total bit-identical to the
    scalar running sum over just the live entries.  (``np.sum`` and
    ``np.add.reduceat`` are pairwise and do NOT have this property.)
    """
    return np.cumsum(contrib, axis=1)[:, -1]


# ----------------------------------------------------------------------
# Sort-merge (Section 3.6.1)
# ----------------------------------------------------------------------


def _sm_half_contribs(
    small: PaddedBatch,
    large: PaddedBatch,
    st: _SurvivalTable,
    include_equal: bool,
) -> np.ndarray:
    """Per-(pair, large-bucket) terms of ``E[Φ_SM ; small <(=) large]``.

    Integrating memory out of the 2/4/6-pass formula gives the per-pair
    multiplier ``6 - 2·Pr(M > sqrt(min)) - 2·Pr(M > sqrt(max))``; the
    remaining double sum collapses into prefix sums over the smaller
    side's distribution.
    """
    p_sqrt = st.prob_gt_many(np.sqrt(small.values))
    pref_p = np.cumsum(small.pmf * p_sqrt, axis=1)  # Σ Pr(l)·P(sqrt(l))
    pref_lp = np.cumsum(small.values * small.pmf * p_sqrt, axis=1)
    idx = _rank(small, large.values, include_equal)
    prob_le = _gather(small.cdf, idx)
    exp_le = _gather(small.wpre, idx)
    sum_p = _gather(pref_p, idx)
    sum_lp = _gather(pref_lp, idx)
    p_big = st.prob_gt_many(np.sqrt(large.values))
    base = (6.0 - 2.0 * p_big) * (exp_le + large.values * prob_le)
    correction = -2.0 * (sum_lp + large.values * sum_p)
    contrib = large.pmf * (base + correction)
    return np.where(large.valid & (idx > 0), contrib, 0.0)


def _sm_totals(
    lefts: PaddedBatch, rights: PaddedBatch, st: _SurvivalTable
) -> np.ndarray:
    return _row_sums(_sm_half_contribs(lefts, rights, st, True)) + _row_sums(
        _sm_half_contribs(rights, lefts, st, False)
    )


# ----------------------------------------------------------------------
# Nested loop (Section 3.6.2)
# ----------------------------------------------------------------------


def _nl_totals(
    outers: PaddedBatch, inners: PaddedBatch, st: _SurvivalTable
) -> np.ndarray:
    """``E[Φ_NL(A, B, M)]`` per pair.

    With ``s = min(a, b)``, the memory integral gives
    ``(a+b)·Pr(M >= s+2) + a(1+b)·Pr(M < s+2)``; conditioning on which
    side is smaller makes ``Pr(M >= s+2)`` a function of one variable,
    and the other side enters only via suffix sums (the paper's ``G_a``).
    Both conditioned branches of each pair land in one concatenated
    segment so the sequential sum follows the scalar accumulation order.
    """
    a, b = outers.values, inners.values

    # Branch 1: A <= B (s = a).  Suffix stats of B at each a (non-strict).
    idx1 = _rank(inners, a, include_equal=False)
    prob_ge = np.take_along_axis(_suffix_sums(inners.pmf), idx1, axis=1)
    exp_ge = np.take_along_axis(_suffix_sums(b * inners.pmf), idx1, axis=1)
    p_fit = st.prob_ge_many(a + 2.0)
    fit_term = p_fit * (a * prob_ge + exp_ge)
    nofit_term = (1.0 - p_fit) * (a * prob_ge + a * exp_ge)
    c1 = np.where(outers.valid, outers.pmf * (fit_term + nofit_term), 0.0)

    # Branch 2: A > B (s = b).  Suffix stats of A at each b (strict).
    idx2 = _rank(outers, b, include_equal=True)
    prob_gt = np.take_along_axis(_suffix_sums(outers.pmf), idx2, axis=1)
    exp_gt = np.take_along_axis(_suffix_sums(a * outers.pmf), idx2, axis=1)
    p_fit2 = st.prob_ge_many(b + 2.0)
    fit_term2 = p_fit2 * (exp_gt + b * prob_gt)
    nofit_term2 = (1.0 - p_fit2) * (exp_gt * (1.0 + b))
    c2 = np.where(inners.valid, inners.pmf * (fit_term2 + nofit_term2), 0.0)

    return _row_sums(np.concatenate([c1, c2], axis=1))


# ----------------------------------------------------------------------
# Grace hash (extension of the paper's technique)
# ----------------------------------------------------------------------


def _gh_half_contribs(
    small: PaddedBatch,
    large: PaddedBatch,
    st: _SurvivalTable,
    include_equal: bool,
) -> np.ndarray:
    """Per-(pair, large-bucket) terms of the conditioned Grace-hash half.

    The 1/2/4-pass multiplier depends on memory only through the smaller
    input ``s``:  ``Pr(M >= s+2) + 2·(Pr(M >= sqrt(s)) - Pr(M >= s+2)) +
    4·Pr(M < sqrt(s))``, so the same conditioning trick as sort-merge
    applies.
    """
    p_two = st.prob_ge_many(small.values + 2.0)
    p_sqrt = st.prob_ge_many(np.sqrt(small.values))
    mult = p_two + 2.0 * (p_sqrt - p_two) + 4.0 * (1.0 - p_sqrt)
    pref_m = np.cumsum(small.pmf * mult, axis=1)
    pref_lm = np.cumsum(small.values * small.pmf * mult, axis=1)
    idx = _rank(small, large.values, include_equal)
    contrib = large.pmf * (
        _gather(pref_lm, idx) + large.values * _gather(pref_m, idx)
    )
    return np.where(large.valid & (idx > 0), contrib, 0.0)


def _gh_totals(
    lefts: PaddedBatch, rights: PaddedBatch, st: _SurvivalTable
) -> np.ndarray:
    return _row_sums(_gh_half_contribs(lefts, rights, st, True)) + _row_sums(
        _gh_half_contribs(rights, lefts, st, False)
    )


_METHOD_TOTALS = {
    JoinMethod.SORT_MERGE: _sm_totals,
    JoinMethod.NESTED_LOOP: _nl_totals,
    JoinMethod.GRACE_HASH: _gh_totals,
}


# ----------------------------------------------------------------------
# Batched evaluation and single-pair wrappers
# ----------------------------------------------------------------------


def expected_join_costs_batched(
    requests: Sequence[BatchRequest],
    memory: DiscreteDistribution,
    survival: Optional[_SurvivalTable] = None,
) -> np.ndarray:
    """One-shot ``E[Φ]`` for a batch of fast-path join requests.

    ``requests`` is a sequence of ``(method, left, right)`` triples; the
    result array is aligned with it.  Requests sharing a method are
    evaluated by one padded array kernel over shared survival prefix
    sums, and each entry is bit-identical to the corresponding
    single-pair ``expected_*_cost`` call (which itself routes through
    this kernel with a batch of one).

    Raises ``ValueError`` for methods outside :data:`FAST_METHODS`.
    """
    st = survival if survival is not None else _SurvivalTable(memory)
    if requests:
        batches = tuple(map(PaddedBatch, zip(*[request[1:] for request in requests])))
    out = np.empty(len(requests), dtype=float)
    by_method: dict = {}
    for i, (method, _, _) in enumerate(requests):
        by_method.setdefault(method, []).append(i)
    for method, rows in by_method.items():
        kernel = _METHOD_TOTALS.get(method)
        if kernel is None:
            raise ValueError(f"no fast expected-cost path for {method}")
        out[rows] = kernel(*(batch.take(rows) for batch in batches), st)
    return out


def expected_join_costs_batched_parallel(requests, memory, survival=None):
    """Uncalled tombstone of the retired level pool.  Frozen
    ``bench/trace.py`` line 78 (TABLE ``"costmodel.expected_cost"``) needs the
    name to resolve to its own function; goes when ``bench/`` unfreezes."""
    return expected_join_costs_batched(requests, memory, survival=survival)


def expected_sort_merge_cost(
    left: DiscreteDistribution,
    right: DiscreteDistribution,
    memory: DiscreteDistribution,
    survival: Optional[_SurvivalTable] = None,
) -> float:
    """``E[Φ_SM(L, R, M)]`` in near-linear time."""
    st = survival if survival is not None else _SurvivalTable(memory)
    return float(_sm_totals(PaddedBatch([left]), PaddedBatch([right]), st)[0])


def expected_nested_loop_cost(
    outer: DiscreteDistribution,
    inner: DiscreteDistribution,
    memory: DiscreteDistribution,
    survival: Optional[_SurvivalTable] = None,
) -> float:
    """``E[Φ_NL(A, B, M)]`` in near-linear time."""
    st = survival if survival is not None else _SurvivalTable(memory)
    return float(_nl_totals(PaddedBatch([outer]), PaddedBatch([inner]), st)[0])


def expected_grace_hash_cost(
    left: DiscreteDistribution,
    right: DiscreteDistribution,
    memory: DiscreteDistribution,
    survival: Optional[_SurvivalTable] = None,
) -> float:
    """``E[Φ_GH(L, R, M)]`` in near-linear time."""
    st = survival if survival is not None else _SurvivalTable(memory)
    return float(_gh_totals(PaddedBatch([left]), PaddedBatch([right]), st)[0])


def expected_join_cost_fast(
    method: JoinMethod,
    left: DiscreteDistribution,
    right: DiscreteDistribution,
    memory: DiscreteDistribution,
    survival: Optional[_SurvivalTable] = None,
) -> float:
    """Linear-time ``E[Φ]`` for the methods that support it.

    Raises ``ValueError`` for methods without a fast path (use
    :func:`expected_join_cost_naive` for those).
    """
    return float(
        expected_join_costs_batched([(method, left, right)], memory, survival)[0]
    )


def expected_external_sort_cost(
    pages: DiscreteDistribution,
    memory: DiscreteDistribution,
    sort_fn: Callable[[float, float], float],
) -> float:
    """``E[sort(P, M)]`` over independent page-count and memory buckets."""
    total = 0.0
    for p, pp in pages.items():
        for m, pm in memory.items():
            total += pp * pm * sort_fn(p, m)
    return total


def expected_external_sort_cost_model(
    cost_model,
    pages: DiscreteDistribution,
    memory: DiscreteDistribution,
) -> float:
    """Vectorized :func:`expected_external_sort_cost` over a cost model.

    Same (p, m) enumeration order and sequential accumulation as the
    scalar loop over ``cost_model.sort_cost`` — identical value and
    ``eval_count`` accounting, one array op.
    """
    pv, pp = pages.values, pages.probs
    mv, mp = memory.values, memory.probs
    shape = (pv.size, mv.size)
    grid_p = np.broadcast_to(pv[:, None], shape).ravel()
    grid_m = np.broadcast_to(mv[None, :], shape).ravel()
    costs = cost_model.sort_cost_many(grid_p, grid_m)
    probs = (pp[:, None] * mp[None, :]).ravel()
    return float(np.cumsum(probs * costs)[-1])
