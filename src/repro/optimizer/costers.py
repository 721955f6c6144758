"""Costers: the objective plugged into the System-R dynamic program.

The DP engine (:mod:`repro.optimizer.systemr`) is generic over *how a
step is costed*; each of the paper's settings is one :class:`Coster`:

* :class:`PointCoster` — Φ at one fixed parameter setting.  This is the
  LSC baseline (Theorem 2.1) and, run once per bucket, the inner loop of
  Algorithms A and B.
* :class:`ExpectedCoster` — ``E_M[Φ]`` with static random memory: the
  exact-LEC Algorithm C (Theorem 3.3).
* :class:`MarkovCoster` — dynamic memory: each join phase is costed
  against the chain's marginal distribution for that phase
  (Theorem 3.4).
* :class:`MultiParamCoster` — Algorithm D: memory, input sizes and
  selectivities all distributional; carries a page-count distribution per
  relation subset and takes expectations over (M, |L|, |R|) triples —
  per DP level and method one naive ``b_M·b_L·b_R`` grid laid over all
  its steps (:mod:`repro.core.expected_cost`); presorted sort-merge step
  by step.

Every coster exposes the same five hooks (access, join step, intermediate
write, final sort, result pages), all returning scalars in the coster's
objective; because every objective is an expectation, DP additivity and
hence optimality is preserved.

The DP costs a level in one pass, its steps in columns:
``prefetch_join_steps(phase, left_presorted, right_presorted, pairs)``
takes the level's ``(left_rels, right_rels)`` pairs under those flags
and returns one list of Python floats per join method
(:attr:`Coster.methods` order), bit for bit the scalar
``join_step_cost`` of each — one grid per list, over operands the
column builds once for all methods (pages broadcast against the memory
row, a naive grid over size distributions).  A column is
costed directly: a level names each pair once, so no step memo sits on
the batch path (the engine keeps whole columns in the context instead).

Shared state lives in an :class:`~repro.core.context.OptimizationContext`
attached at :meth:`Coster.bind` time: subset sizes and size
distributions are memoized there instead of in per-coster private dicts,
survival tables are fetched from the context, and the scalar step costs
— writes, enforcer sorts and ``join_step_cost`` — are memoized under a
key spanning the coster's full parameter identity, so a context
threaded across several optimizer invocations (Algorithms A-D over one
query, a parametric sweep, repeated facade calls) answers them from
cache.  A coster bound without an explicit context builds a private
one, which reproduces the historical (per-invocation) behavior exactly.
"""

from __future__ import annotations

import abc
from typing import Callable, Dict, FrozenSet, Iterable, List, Optional, Sequence, Tuple

import numpy as np

from ..core.context import OptimizationContext
from ..core.distributions import DiscreteDistribution
from ..core.expected_cost import (
    NaiveGrid,
    expected_external_sort_cost_model,
    expected_join_cost_naive,
    expected_join_cost_naive_model,
)
from ..core.markov import MarkovParameter
from ..costmodel.estimates import project_pages
from ..costmodel.model import CostModel
from ..plans.nodes import Scan
from ..plans.properties import JoinMethod
from ..plans.query import JoinQuery
from .errors import OptimizerConfigError

__all__ = [
    "Coster",
    "PointCoster",
    "ExpectedCoster",
    "MarkovCoster",
    "MultiParamCoster",
]


class Coster(abc.ABC):
    """Objective-specific costing of DP steps.

    Call :meth:`bind` with the query before use; the engine does this.

    ``requires_ordered_phases`` declares whether the objective is only
    well-defined when every candidate plan schedules its joins in the
    canonical phases ``0..s-2`` per subset — the engine matches it
    against :attr:`~repro.plans.space.PlanSpace.ordered_phases`.
    """

    #: Phase-indexed objectives (Markov) need canonical phase numbering.
    requires_ordered_phases: bool = False

    def __init__(self, cost_model: Optional[CostModel] = None):
        self.cost_model = cost_model if cost_model is not None else CostModel()
        self.query: Optional[JoinQuery] = None
        self.context: Optional[OptimizationContext] = None

    def bind(
        self, query: JoinQuery, context: Optional[OptimizationContext] = None
    ) -> None:
        """Attach the query and the shared context.

        Without an explicit ``context`` a private one is created, so the
        coster starts from a cold cache — the historical behavior.  A
        supplied context must have been built for this exact query
        (checked via its statistics fingerprint); a mismatch falls back
        to a fresh context rather than serving stale sizes.
        """
        self.query = query
        if context is not None and context.matches(query):
            self.context = context
        else:
            self.context = OptimizationContext(query)

    @property
    def methods(self):
        """Join methods available to the engine."""
        return self.cost_model.methods

    def _memo_key(self) -> tuple:
        """The coster-identity prefix for context step-cost and column keys.

        Subclasses return a tuple covering every parameter that affects
        their numeric output; two costers with equal prefixes must
        produce identical costs for identical steps.
        """
        raise NotImplementedError

    # -- hooks ---------------------------------------------------------

    def access_cost(self, scan: Scan) -> float:
        """Cost of the leaf access path (memory independent)."""
        assert self.query is not None
        return self.cost_model.scan_node_cost(scan, self.query)

    @abc.abstractmethod
    def join_step_cost(
        self,
        method: JoinMethod,
        left_rels: FrozenSet[str],
        right_rels: FrozenSet[str],
        phase: int,
        left_presorted: bool = False,
        right_presorted: bool = False,
    ) -> float:
        """Objective value of joining two relation subsets with ``method``.

        The presorted flags grant sort-merge its interesting-order credit
        when an input already carries the join's sort order.
        """

    def _join_formula(
        self, method, left_pages, right_pages, memory, left_presorted, right_presorted
    ) -> float:
        """One step's formula, order-aware for sort-merge when credit applies."""
        return self.cost_model.join_costs(
            method, (left_pages,), (right_pages,), memory,
            left_presorted, right_presorted,
        )[0]

    def _join_formula_many(
        self,
        method: JoinMethod,
        left_pages: np.ndarray,
        right_pages: np.ndarray,
        memory: np.ndarray,
        left_presorted: bool,
        right_presorted: bool,
    ) -> np.ndarray:
        """:meth:`_join_formula` over arrays, through the counting
        ``*_many`` entry points: ``eval_count`` advances by one per grid
        point, as it does there."""
        if method is JoinMethod.SORT_MERGE and (left_presorted or right_presorted):
            return self.cost_model.sort_merge_cost_ordered_many(
                left_pages, right_pages, memory, left_presorted, right_presorted
            )
        return self.cost_model.join_cost_many(
            method, left_pages, right_pages, memory
        )

    @abc.abstractmethod
    def prefetch_join_steps(
        self, phase: int, left_presorted: bool, right_presorted: bool,
        pairs: Sequence[Tuple[FrozenSet[str], FrozenSet[str]]],
    ) -> List[List[float]]:
        """The costs of joining each ``(left_rels, right_rels)`` pair in
        ``phase`` under the presorted flags: one list of Python floats per
        method of :attr:`methods`, in that order, aligned with ``pairs`` —
        how the DP costs a level.  No ``pairs`` gives one ``[]`` per method.

        Equal to ``[[self.join_step_cost(m, l, r, phase, left_presorted,
        right_presorted) for l, r in pairs] for m in self.methods]`` **bit
        for bit**, and for distinct pairs on a cold context with the same
        ``eval_count``.  No step memo is read or written: every pair is
        costed, one grid per method (:meth:`_batched_steps`), on the
        calling thread — a DP level names each of its pairs once per
        column, so a memo per step would only miss (the engine keeps
        whole columns: :meth:`OptimizationContext.column_costs`).
        """

    def _batched_steps(
        self, pairs,
        operands: Callable[[list], object],
        grid: Callable[[JoinMethod, object], Iterable[float]],
    ) -> List[List[float]]:
        """:meth:`prefetch_join_steps` over a column: ``operands(pairs)``
        builds what the formulas read, once for all methods, and
        ``grid(method, operands)`` costs it, a value per pair."""
        assert self.context is not None, "coster used before bind()"
        if not pairs:
            return [[] for _ in self.methods]
        shared = operands(pairs)
        return [list(map(float, grid(method, shared))) for method in self.methods]

    def _point_pages(self, pairs):
        """The left and right point page counts of ``pairs`` (a column
        names each subset in many steps; it is looked up once)."""
        pages: Dict[FrozenSet[str], float] = {}
        lookup = self.context.subset_pages
        for pair in pairs:
            for subset in pair:
                if subset not in pages:
                    pages[subset] = lookup(subset)
        return [pages[l] for l, _ in pairs], [pages[r] for _, r in pairs]

    def _expected_steps(self, phase, lps, rps, pairs, memory) -> List[List[float]]:
        """A column with one (steps × memory-buckets) grid per method
        under ``memory``: ``(n, 1)`` pages broadcast against the
        ``(1, b_M)`` memory row (a formula ignoring memory, sort-merge
        over two presorted inputs, stays ``(n, 1)`` and is repeated).
        Each row is finished with the ``np.dot`` against the memory pmf
        that :meth:`DiscreteDistribution.expectation` uses: bit-identical
        to the scalar ``memory.expectation(lambda m: formula(...))``.
        """
        row, probs = memory.values[None, :], memory.probs

        def operands(pairs):
            return [np.array(side)[:, None] for side in self._point_pages(pairs)]

        def grid(method, operands):
            rows = self._join_formula_many(method, *operands, row, lps, rps)
            if rows.shape[1] != row.size:
                rows = np.repeat(rows, row.size, axis=1)
            return [r.dot(probs) for r in rows]

        return self._batched_steps(pairs, operands, grid)

    def _expected_step(self, memory, method, left_rels, right_rels, phase,
                       left_presorted, right_presorted) -> float:
        """One join step's ``E[formula]`` under ``memory``, memoized."""
        def compute() -> float:
            lp, rp = self._pages(left_rels), self._pages(right_rels)
            return memory.expectation(lambda m: self._join_formula(
                method, lp, rp, m, left_presorted, right_presorted
            ))

        return self._step(self._join_step_key(
            method, left_rels, right_rels, phase, left_presorted, right_presorted
        ), compute)

    def _expected_sort(self, memory, pages: float) -> float:
        """The enforcer sort's ``E[cost]`` over ``pages`` under ``memory``."""
        return memory.expectation(lambda m: self.cost_model.sort_cost(pages, m))

    def _join_step_key(
        self, method, left_rels, right_rels, phase, left_presorted, right_presorted
    ) -> tuple:
        """The context memo key of one scalar join step.

        Phase is ignored by default; phase-indexed objectives fold it in.
        The method goes in by value: a string hashes without a call.
        """
        return (
            *self._memo_key(), "join", method.value, left_presorted,
            right_presorted, frozenset(left_rels), frozenset(right_rels),
        )

    @abc.abstractmethod
    def write_cost(self, rels: FrozenSet[str]) -> float:
        """Objective value of materialising the subset's result pages."""

    @abc.abstractmethod
    def final_sort_cost(self, rels: FrozenSet[str], phase: int) -> float:
        """Objective value of the enforcer sort over the subset's result."""

    # -- shared helpers --------------------------------------------------

    def _pages(self, rels: FrozenSet[str]) -> float:
        assert self.context is not None, "coster used before bind()"
        return self.context.subset_pages(rels)

    def _step(self, key: tuple, compute) -> float:
        """Memoize one step cost in the bound context."""
        assert self.context is not None, "coster used before bind()"
        return self.context.step_cost(key, compute)

    # -- union (SPJU) hooks ---------------------------------------------

    def union_overhead(self, arms, distinct: bool) -> float:
        """Objective value charged at a union root over costed arms.

        ``arms`` is a sequence of ``(rels, projection_ratio,
        materialised)`` triples, one per arm.  UNION ALL streams and is
        free; DISTINCT charges each materialised arm's projected write
        plus one external sort over the combined projected pages —
        mirroring a union's term in :meth:`repro.costmodel.model.CostModel.node_terms`.
        """
        if not distinct:
            return 0.0
        total = 0.0
        total_pages = 0.0
        for rels, ratio, materialised in arms:
            pages = project_pages(self._pages(rels), ratio)
            if materialised:
                total += pages
            total_pages += pages
        return total + self._union_sort_cost(total_pages)

    def _union_sort_cost(self, pages: float) -> float:
        """Objective value of the dedup sort over ``pages``."""
        raise NotImplementedError(
            f"{type(self).__name__} does not support distinct unions"
        )


#: Below this many steps a point column costs less as one
#: :meth:`CostModel.join_costs` list call per method than as one array call
#: per method over page arrays built once.  µs per call, list / array, and
#: the build (numpy 2.4, CPython 3.11, 2-CPU Xeon, best of 300 × 20 calls):
#:   steps  build     NL          SM          GH          BNL         HH
#:    16     2.5   11.7/12.4   15.2/15.0   12.6/14.7   13.2/13.3   19.4/20.2
#:    18     2.5   13.2/12.3   16.9/14.9   14.1/15.0   15.2/13.3   21.1/20.2
#:    20     2.7   14.5/12.4   18.6/15.1   15.6/15.1   16.6/13.4   23.2/20.4
#: The array call wins from ~17 (NL, BNL, HH), 16 (SM) and 20 (GH) steps;
#: NL + SM + GH and one build break even at 19 (presorted inputs alike).
_MIN_VECTOR_STEPS = 19


class PointCoster(Coster):
    """Φ at a single parameter setting — the LSC view.

    ``memory`` is the one specific value the classical optimizer assumes
    (the mean or mode of the true distribution).
    """

    def __init__(self, memory: float, cost_model: Optional[CostModel] = None):
        super().__init__(cost_model)
        if memory <= 0:
            raise OptimizerConfigError("memory must be positive")
        self.memory = float(memory)

    def _memo_key(self) -> tuple:
        return ("point", self.memory)

    def join_step_cost(
        self, method, left_rels, right_rels, phase,
        left_presorted=False, right_presorted=False,
    ):
        key = self._join_step_key(
            method, left_rels, right_rels, phase, left_presorted, right_presorted
        )
        return self._step(key, lambda: self._join_formula(
            method, self._pages(left_rels), self._pages(right_rels),
            self.memory, left_presorted, right_presorted,
        ))

    def prefetch_join_steps(self, phase, left_presorted, right_presorted, pairs):
        """Per method one formula call over the pairs' pages: a list call
        below :data:`_MIN_VECTOR_STEPS` of them, an array call from there
        on — both the scalar formula's floats and ``eval_count``."""
        lps, rps, memory = left_presorted, right_presorted, self.memory

        def operands(pairs):
            lp, rp = self._point_pages(pairs)
            if len(pairs) < _MIN_VECTOR_STEPS:
                return lp, rp
            return np.array(lp), np.array(rp), np.full(1, memory)

        def grid(method, operands):
            if len(operands) == 2:
                return self.cost_model.join_costs(method, *operands, memory, lps, rps)
            return self._join_formula_many(method, *operands, lps, rps)

        return self._batched_steps(pairs, operands, grid)

    def write_cost(self, rels):
        return self._pages(rels)

    def final_sort_cost(self, rels, phase):
        key = (*self._memo_key(), "sort", rels)
        return self._step(
            key, lambda: self.cost_model.sort_cost(self._pages(rels), self.memory)
        )

    def _union_sort_cost(self, pages):
        return self.cost_model.sort_cost(pages, self.memory)


class ExpectedCoster(Coster):
    """``E_M[Φ]`` with static random memory — Algorithm C's objective."""

    def __init__(
        self,
        memory: DiscreteDistribution,
        cost_model: Optional[CostModel] = None,
    ):
        super().__init__(cost_model)
        self.memory = memory

    def _memo_key(self) -> tuple:
        return ("expected", self.memory)

    def join_step_cost(
        self, method, left_rels, right_rels, phase,
        left_presorted=False, right_presorted=False,
    ):
        return self._expected_step(
            self.memory, method, left_rels, right_rels, phase,
            left_presorted, right_presorted,
        )

    def prefetch_join_steps(self, phase, left_presorted, right_presorted, pairs):
        """One (steps × memory-buckets) formula grid per method."""
        return self._expected_steps(
            phase, left_presorted, right_presorted, pairs, self.memory
        )

    def write_cost(self, rels):
        return self._pages(rels)

    def final_sort_cost(self, rels, phase):
        key = (*self._memo_key(), "sort", rels)
        return self._step(key, lambda: self._union_sort_cost(self._pages(rels)))

    def _union_sort_cost(self, pages):
        return self._expected_sort(self.memory, pages)


class MarkovCoster(Coster):
    """Dynamic memory: phase ``k`` costed under the chain's ``marginal(k)``.

    Exact for ordered-phase plan spaces (left-deep, zig-zag) because
    every candidate for a subset of size ``s`` schedules its joins in the
    same phases ``0..s-2`` and expectation distributes over the
    phase-cost sum (Theorem 3.4).
    """

    requires_ordered_phases = True

    def __init__(
        self,
        chain: MarkovParameter,
        cost_model: Optional[CostModel] = None,
    ):
        super().__init__(cost_model)
        if self.cost_model.pipelined_methods:
            raise OptimizerConfigError(
                "pipelined joins merge execution phases; the per-phase "
                "Markov objective does not support them"
            )
        self.chain = chain

    def _memo_key(self) -> tuple:
        # Chains hash by identity; the key keeps the chain object alive,
        # so a context outliving the coster still resolves correctly.
        return ("markov", self.chain)

    def _join_step_key(self, method, left_rels, right_rels, phase, *flags):
        key = super()._join_step_key(method, left_rels, right_rels, phase, *flags)
        return (*key, phase)

    def join_step_cost(
        self, method, left_rels, right_rels, phase,
        left_presorted=False, right_presorted=False,
    ):
        return self._expected_step(
            self.chain.marginal(phase), method, left_rels, right_rels, phase,
            left_presorted, right_presorted,
        )

    def prefetch_join_steps(self, phase, left_presorted, right_presorted, pairs):
        """Like :class:`ExpectedCoster`, under the phase's marginal."""
        return self._expected_steps(
            phase, left_presorted, right_presorted, pairs,
            self.chain.marginal(phase),
        )

    def write_cost(self, rels):
        return self._pages(rels)

    def final_sort_cost(self, rels, phase):
        key = (*self._memo_key(), "sort", phase, rels)
        return self._step(key, lambda: self._expected_sort(
            self.chain.marginal(phase), self._pages(rels)
        ))


class MultiParamCoster(Coster):
    """Algorithm D: sizes and selectivities uncertain alongside memory.

    Per dag node the paper carries exactly four distributions — memory,
    ``|B_j|``, ``|A_j|`` and the join selectivity.  Here the first three
    feed :meth:`join_step_cost` (a triple-bucket expectation) and the
    fourth is folded into the context-cached subset size distributions.

    Parameters
    ----------
    memory:
        Static memory distribution.
    max_buckets:
        Rebucketing width for propagated size distributions
        (Section 3.6.3).

    Every step takes the naive ``b_M·b_L·b_R`` grid: at the grids the
    system serves it beats C7's linear-time kernel, which stays with the
    whole-plan evaluator (``plan_expected_cost_multiparam(fast=True)``).
    """

    def __init__(
        self,
        memory: DiscreteDistribution,
        cost_model: Optional[CostModel] = None,
        max_buckets: int = 16,
    ):
        super().__init__(cost_model)
        self.memory = memory
        self.max_buckets = max_buckets

    def _memo_key(self) -> tuple:
        return ("multiparam", self.memory, self.max_buckets)

    def size_distribution(self, rels: FrozenSet[str]) -> DiscreteDistribution:
        """Context-cached page-count distribution of a relation subset."""
        assert self.context is not None, "coster used before bind()"
        return self.context.size_distribution(rels, max_buckets=self.max_buckets)

    def _compute_step(
        self, method, left_rels, right_rels, left_presorted, right_presorted
    ) -> float:
        """One step's expectation, not memoized as a step."""
        ld = self.size_distribution(left_rels)
        rd = self.size_distribution(right_rels)
        if not (left_presorted or right_presorted):
            return expected_join_cost_naive_model(
                self.cost_model, method, ld, rd, self.memory
            )
        # Order-aware sort-merge: no linear-time path; a triple loop.
        return expected_join_cost_naive(
            lambda *step: self._join_formula(*step, left_presorted, right_presorted),
            method, ld, rd, self.memory,
        )

    def join_step_cost(
        self, method, left_rels, right_rels, phase,
        left_presorted=False, right_presorted=False,
    ):
        key = self._join_step_key(
            method, left_rels, right_rels, phase, left_presorted, right_presorted
        )
        return self._step(key, lambda: self._compute_step(
            method, left_rels, right_rels, left_presorted, right_presorted
        ))

    def prefetch_join_steps(self, phase, left_presorted, right_presorted, pairs):
        """One call per method: one naive triple grid laid over every
        pair (a :class:`NaiveGrid`, built once for all methods); a
        presorted column keeps the order-aware per-step route.
        """
        lps, rps, sizes = left_presorted, right_presorted, self.size_distribution
        if lps or rps:  # operands: the pairs' names, costed step by step
            return self._batched_steps(pairs, list, lambda method, named: [
                self._compute_step(method, left, right, lps, rps) for left, right in named])

        return self._batched_steps(
            pairs,
            lambda pairs: NaiveGrid(
                [(sizes(left), sizes(right)) for left, right in pairs], self.memory),
            lambda method, grid: grid.costs(self.cost_model, method),
        )

    def write_cost(self, rels):
        key = (*self._memo_key(), "write", frozenset(rels))
        return self._step(key, lambda: self.size_distribution(rels).mean())

    def final_sort_cost(self, rels, phase):
        key = (*self._memo_key(), "sort", frozenset(rels))
        return self._step(
            key,
            lambda: expected_external_sort_cost_model(
                self.cost_model, self.size_distribution(rels), self.memory
            ),
        )

    def union_overhead(self, arms, distinct):
        """Distributional DISTINCT overhead: writes + expected dedup sort.

        Arm size distributions are scaled by their projection ratios and
        the convolved union size is clamped to the summed Chen &
        Schneider bounds before the expected external-sort cost is taken
        — the C6 rebucketing of the convolution stays inside the
        provable range.
        """
        if not distinct:
            return 0.0
        assert self.context is not None, "coster used before bind()"
        total = 0.0
        arm_dists = []
        lo_sum = 0.0
        hi_sum = 0.0
        for rels, ratio, materialised in arms:
            dist = self.size_distribution(rels)
            lo, hi = self.context.subset_bounds(rels)
            if ratio < 1.0:
                dist = dist.scale(ratio).clip(lo=1.0)
                lo, hi = max(1.0, lo * ratio), max(1.0, hi * ratio)
            if materialised:
                total += dist.mean()
            arm_dists.append(dist)
            lo_sum += lo
            hi_sum += hi
        acc = arm_dists[0]
        for nxt in arm_dists[1:]:
            acc = acc.convolve(nxt).rebucket(self.max_buckets)
        acc = acc.clip(lo=lo_sum * (1.0 - 1e-9), hi=hi_sum * (1.0 + 1e-9))
        return total + expected_external_sort_cost_model(
            self.cost_model, acc, self.memory
        )
