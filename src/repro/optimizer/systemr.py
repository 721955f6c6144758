"""The System-R dynamic program, generic over objective *and* plan space.

This is the engine of Section 2.2, working on the subset dag: node ``S``
holds the best plan(s) for computing ``⋈_{i∈S} A_i``.  Everything the
paper varies — point vs. expected vs. phase-marginal vs. multi-parameter
costing — is injected through a :class:`~repro.optimizer.costers.Coster`,
so Theorem 2.1 (LSC), Theorem 3.3 (Algorithm C) and Theorem 3.4 (dynamic
parameters) are all instances of this one dynamic program.  Which plan
*shapes* the program searches is injected through a
:class:`~repro.plans.space.PlanSpace`: the space supplies the per-level
candidate-subset lists and the per-subset (left, right) partitions, so
left-deep, zig-zag and bushy search differ only in the space object.

Bookkeeping details that matter for fidelity:

* **DP invariant.** An entry's cost covers its whole subtree *except* the
  write of its own (top) output; extending a subplan charges that write,
  and the root pays it only when an enforcer sort must re-read the result.
  This matches :meth:`repro.costmodel.model.CostModel.plan_cost` exactly.
* **Interesting orders.** Entries are kept per ``(subset, order)`` pair,
  so a sort-merge plan that delivers the query's required order survives
  even when a hash plan is cheaper before the final sort is accounted.
  A split *combines* its inputs per presorted flag, not per order: a
  step cost sees only whether an input carries the join's order target.
  So a level is costed in columns: per presorted-flag pair one coster
  call over the level's ``(left, right)`` relation-set pairs, one cost
  list per join method back.
* **Top-k.** With ``top_k = c > 1`` the engine retains the top ``c``
  entries per (subset, order) and combines candidate lists with the
  Proposition 3.1 merge — this is Algorithm B's candidate generator.
* **Plan spaces.** ``"left-deep"`` reproduces the paper's search space;
  ``"zig-zag"`` adds mirrored splits; ``"bushy"`` enumerates all
  partitions (the extension the paper defers).  The enlarged spaces are
  pruned with Chen & Schneider intermediate-size lower bounds: a
  partition whose children plus input-read bound cannot beat the worst
  retained entry of every reachable order bucket is skipped — where
  the bound alone can tell, before any of its steps is costed.
* **Integer subsets, costs first.** Inside the DP a relation set is an
  ``int`` mask over sorted-name bit numbers and a subset's splits are
  walked in ascending mask order — the order is part of the contract,
  because equal costs are settled by first arrival: split, then pair
  of input views, then method, then probe order.  What a run knows of a
  subset (names, floors, write cost, unsorted view) is under the mask.  A
  candidate is a cost, an admitted entry is a back-pointer, a plan is
  built once at the root (:attr:`DPEntry.node`).
* **SPJU.** A :class:`~repro.plans.query.JoinQuery` that is actually a
  :class:`~repro.plans.spju.UnionQuery` is optimized arm by arm (the DP
  runs once per arm — predicates never cross arms) and combined under a
  single :class:`~repro.plans.nodes.Union` root, with the union's
  streaming/dedup overhead supplied by the coster.
"""

from __future__ import annotations

import math
from bisect import bisect_right
from collections import defaultdict
from operator import itemgetter
from typing import Dict, FrozenSet, Iterator, List, Optional, Sequence, Tuple

from ..core.context import OptimizationContext
from ..plans.nodes import Join, Plan, PlanNode, Project, Scan, Sort
from ..plans.nodes import Union as UnionNode
from ..plans.properties import AccessPath, order_from_join
from ..plans.query import JoinQuery, QueryError
from ..plans.space import PlanSpace
from ..plans.spju import UnionQuery
from .costers import Coster
from .errors import OptimizerConfigError
from .result import OptimizationResult, OptimizerStats, PlanChoice
from .topk import TopKList, top_sums

__all__ = ["SystemRDP", "DPEntry"]

#: Table type: subset mask -> (output order -> retained entries); every
#: bucket in it holds at least one entry.
_Table = Dict[int, Dict[Optional[str], "TopKList[DPEntry]"]]
#: One joinable split: (left mask, right mask, predicate label, order
#: target, output order per join method, lower bound on its candidates).
_Split = Tuple[int, int, str, Optional[str], Tuple[Optional[str], ...], float]
_bound_of, _cost_of = itemgetter(5), itemgetter(0)
#: A join input as a split sees it: (presorted, ascending costs, entries).
_View = Tuple[bool, Sequence[float], Sequence["DPEntry"]]
#: A level's step costs: (left mask, right mask) -> per pair of input
#: views, [left view, right view, one cost per join method].
_Steps = Dict[Tuple[int, int], List[list]]


class DPEntry:
    """One retained subplan for a dag node.

    ``cost`` excludes the write of the entry's own output (see module
    docstring); ``order`` is the output order label, if any.  A join
    entry's ``source`` is ``(space, left entry, right entry, method,
    predicate label, order target)``; ``node`` goes through
    :meth:`PlanSpace.join` on first access, once, children first.
    """

    __slots__ = ("cost", "order", "source", "_node")

    def __init__(self, cost: float, order: Optional[str], source=None, node=None):
        self.cost, self.order, self.source, self._node = cost, order, source, node

    @property
    def node(self) -> PlanNode:
        if self._node is None:
            space, left, right, method, label, order_target = self.source
            self._node = space.join(left.node, right.node, method, label, order_target)
        return self._node


class SystemRDP:
    """Bottom-up join-order optimizer over the subset dag.

    Parameters
    ----------
    coster:
        Objective: point (LSC), expected (LEC), Markov, or multi-param.
    plan_space:
        A :class:`~repro.plans.space.PlanSpace` or its spelling:
        ``"left-deep"`` (paper heuristic 2), ``"zig-zag"``, ``"bushy"``,
        or ``"spju"`` (bushy + union blocks).
    allow_cross_products:
        Permit joining subsets with no connecting predicate (selectivity
        1 "trivially true" predicate, per the paper's expository device).
    top_k:
        Plans retained per (subset, order); ``> 1`` enables Algorithm B's
        candidate generation.
    context:
        Optional shared :class:`~repro.core.context.OptimizationContext`.
        When given (and matching the optimized query's statistics) the
        coster draws memoized sizes, distributions and step costs from
        it; otherwise a fresh context is created per :meth:`optimize`
        call.

    Every level is evaluated the same way whatever the space or coster,
    on the calling thread (:meth:`_run_dp`).  By Theorems 2.1/3.3 the
    optimum depends only on expectation being additive over plan nodes,
    never on the order or grouping in which step costs are evaluated;
    offer order settles ties.
    """

    def __init__(
        self,
        coster: Coster,
        plan_space="left-deep",
        allow_cross_products: bool = False,
        top_k: int = 1,
        context: Optional[OptimizationContext] = None,
    ):
        try:
            space = PlanSpace.parse(plan_space)
        except ValueError as exc:
            raise OptimizerConfigError(str(exc)) from None
        if coster.requires_ordered_phases and not space.ordered_phases:
            raise OptimizerConfigError(
                f"{type(coster).__name__} needs canonical join phases; "
                f"the {space.key!r} plan space does not provide them"
            )
        if top_k < 1:
            raise OptimizerConfigError("top_k must be >= 1")
        self.coster = coster
        self.space = space
        self.allow_cross_products = allow_cross_products
        self.top_k = top_k
        self.context = context
        # Chen & Schneider lower-bound pruning pays off (and keeps legacy
        # instrumentation exact) only on the enlarged spaces.
        self._prune = space.shape != "left-deep"
        #: The running block's subset mask -> relation names, one
        #: frozenset per table subset: the skeleton's (see :meth:`_run_dp`).
        self._rels: Dict[int, FrozenSet[str]] = {}
        #: Per-run cost state.  Mask -> cheapest retained cost plus page
        #: lower bound, cached.
        self._floors: Dict[int, float] = {}
        #: ... -> what writing its output costs (a stored relation: 0.0).
        self._writes: Dict[int, float] = {}
        #: ... -> its views (one, unsorted) when no bucket is the order target.
        self._unsorted: Dict[int, List[_View]] = {}
        self._methods: List[tuple] = []  # (join method, pipelined) pairs

    # ------------------------------------------------------------------

    def optimize(self, query: JoinQuery) -> OptimizationResult:
        """Run the dynamic program and return the chosen plan.

        With ``top_k > 1`` the result's ``candidates`` list holds the top
        ``k`` complete plans (best first); otherwise just the winner.
        Union blocks (:class:`~repro.plans.spju.UnionQuery`) are routed
        through the per-arm SPJU path.
        """
        if isinstance(query, UnionQuery):
            return self._optimize_union(query)
        # bind() falls back to a fresh private context when the shared one
        # was built for different statistics — stale reuse is structurally
        # impossible, not merely discouraged.
        self.coster.bind(query, self.context)
        stats = OptimizerStats()
        evals_before = self.coster.cost_model.eval_count

        names = query.relation_names()
        table = self._run_dp(query, names, stats)

        buckets = table.get((1 << len(names)) - 1)
        if buckets is None:
            raise QueryError(
                "no plan found: the join graph is disconnected "
                "(pass allow_cross_products=True to permit cross joins)"
            )

        kept = self._finalize(frozenset(names), query, buckets)
        stats.subsets_explored = len(table)
        stats.formula_evaluations = self.coster.cost_model.eval_count - evals_before
        return OptimizationResult(best=kept[0], candidates=kept, stats=stats)

    # ------------------------------------------------------------------
    # DP internals
    # ------------------------------------------------------------------

    def _run_dp(
        self, query: JoinQuery, names: Sequence[str], stats: OptimizerStats
    ) -> _Table:
        """Fill the subset table for ``names`` (one SPJ block).

        Subsets are ``int`` masks over :meth:`JoinQuery.join_graph`'s
        sorted-name numbering.  What a run walks depends on no cost: the
        numbering, each mask's names (``self._rels``, for the coster API),
        :meth:`PlanSpace.level_masks`' levels and each mask's splits.  The
        first run on a context records that *skeleton* (:meth:`_record`);
        later runs on the same names, shape, cross products and methods
        replay it, re-deriving only the splits' lower bounds.

        A level is evaluated in three moves: :meth:`_prune_level` drops
        the splits their lower bounds rule out (costing only its seeds),
        :meth:`_cost_splits` costs what is left, one coster call per
        presorted-flag pair returning a cost list per join method, and
        :meth:`_build_subset` offers each subset's candidates in
        ascending-submask order, reading the step costs of the batch.
        """
        table: _Table = {}
        self._floors, self._writes, self._unsorted = {}, {}, {}
        writes = self._writes
        pipelined = self.coster.cost_model.pipelined_methods
        self._methods = [(m, m in pipelined) for m in self.coster.methods]
        key = (tuple(names), self.space.shape, self.allow_cross_products, self.coster.methods)
        kept = self.coster.context.skeleton(key)
        if kept is None:
            order, adjacency, preds = query.join_graph(names)
            rels = {1 << i: frozenset((name,)) for i, name in enumerate(order)}
            levels = self._record(key, (order, rels, []), adjacency, preds, table)
        else:
            order, rels, levels = kept
        self._rels = rels

        # Depth 1: access paths for the stored relations.  A relation with
        # an index over its local filter gets two candidate paths; the
        # per-(subset, order) TopKList keeps the best (or the top k).
        for i, name in enumerate(order):
            paths = [Scan(table=name)]
            if query.relation(name).has_index_path():
                paths.append(Scan(table=name, access=AccessPath.INDEX_SCAN))
            bucket: TopKList[DPEntry] = TopKList(self.top_k)
            for scan in paths:
                cost = self.coster.access_cost(scan)
                bucket.offer(cost, DPEntry(cost, None, node=scan))
                stats.entries_offered += 1
            table[1 << i] = {None: bucket}
            writes[1 << i] = 0.0

        # Depths 2..n (level k only reads levels < k, all already in table).
        for phase, (level, walked) in enumerate(levels):
            steps: _Steps = {}
            if self._prune:
                if kept is not None:  # the kept splits' bounds are stale
                    walked = [
                        [(*s[:5], self._lower_bound(s[0], s[1], table)) for s in splits]
                        for splits in walked
                    ]
                self._prune_level(walked, phase, table, steps, stats)
            self._cost_splits(
                [split for splits in walked for split in splits],
                phase, table, steps,
            )
            for mask, splits in zip(level, walked):
                self._build_subset(mask, splits, table, steps, stats)
        return table

    def _record(self, key, skeleton, adjacency, preds, table: _Table) -> Iterator[tuple]:
        """Levels 2..n as ``(masks, splits per mask)``, each derived when the
        run reaches it (splits read the table) and appended to ``skeleton``
        with each joinable mask's names; kept in the context at the end."""
        order, rels, levels = skeleton
        methods = self.coster.methods
        preds = [  # + each predicate's output order per join method
            (*p, tuple(order_from_join(m, p[2]) for m in methods)) for p in preds
        ]
        masks = self.space.level_masks(adjacency, self.allow_cross_products)
        next(masks)  # depth 1: the stored relations
        for level in masks:
            walked = [list(self._splits(mask, order, preds, table)) for mask in level]
            for mask, splits in zip(level, walked):
                if splits:  # any split spans the subset
                    rels[mask] = rels[splits[0][0]] | rels[splits[0][1]]
            levels.append((level, tuple(walked)))  # the prune edits ``walked``
            yield level, walked
        self.coster.context.keep_skeleton(key, skeleton)

    def _splits(
        self,
        mask: int,
        order: Sequence[str],
        preds: Sequence[Tuple[int, str, str, Tuple[Optional[str], ...]]],
        table: _Table,
    ) -> Iterator[_Split]:
        """The splits of ``mask`` the DP may join, ascending by left mask.

        A split qualifies when both sides have table entries and a
        predicate crosses it (the first one names the join) — or, with
        ``allow_cross_products``, when none does.  It carries the output
        order of each join method and, under the prune, its lower bound
        — derived once and served to the mirror split too, except under
        cross products, whose label names the *right* side's lowest.
        """
        derived: Dict[int, tuple] = {}
        for left, right in self.space.split_masks(mask):
            if left not in table or right not in table:
                continue
            shared = derived.get(right)
            if shared is None:
                for ends, label, order_target, orders in preds:
                    if ends & left and ends & right:
                        break
                else:
                    if not self.allow_cross_products:
                        continue
                    lowest = order[(right & -right).bit_length() - 1]
                    label, order_target = f"cross[{lowest}]", None
                    orders = tuple(
                        order_from_join(m, label) for m in self.coster.methods
                    )
                bound = self._lower_bound(left, right, table) if self._prune else 0.0
                shared = (label, order_target, orders, bound)
                if not self.allow_cross_products:
                    derived[left] = shared
            yield (left, right) + shared

    def _lower_bound(self, left: int, right: int, table: _Table) -> float:
        """A lower bound on every candidate the split can produce.

        Every join method reads both inputs at least once, so each
        side's cheapest retained entry plus its page lower bound ``lo``
        (the coster's) bounds them all from below (Chen & Schneider).  No
        step cost enters it; each side's floor is per filed subset, hence
        cached, and the sum is the same for a split and its mirror.
        """
        floors = self._floors
        for mask in (left, right):
            if mask not in floors:
                floors[mask] = min(
                    bucket.costs[0] for bucket in table[mask].values()
                ) + self.coster.pages_lower_bound(self._rels[mask])
        return floors[left] + floors[right]

    def _prune_level(
        self,
        walked: List[List[_Split]],
        phase: int,
        table: _Table,
        steps: _Steps,
        stats: OptimizerStats,
    ) -> None:
        """Drop from ``walked`` the splits their bounds rule out, uncosted.

        What a bound is held against comes from *seeds*: within a
        subset, splits feeding the same order buckets form a group of
        ``m``, and the ``isqrt(m)`` smallest-bound splits of every group
        of three or more (a seed is costed for certain, the rest only
        perhaps: the square root balances the two) are costed — all
        seeds of the level in one batch — and seated, costs only, in
        trial buckets.  :meth:`_dominated`'s rule against those is
        sound for any ``top_k``: what the seeds alone seat, the whole
        subset seats too or better.  A group of two (a split and its
        mirror share a bound) drops nothing — all a chain or star has.
        """
        seeds: List[List[_Split]] = []
        for splits in walked:
            groups: Dict[tuple, List[_Split]] = {}
            for split in splits:
                groups.setdefault(split[4], []).append(split)
            seeds.append([
                seed
                for group in groups.values()
                if len(group) >= 3
                for seed in sorted(group, key=_bound_of)[: math.isqrt(len(group))]
            ])
        self._cost_splits(
            [seed for seeded in seeds for seed in seeded], phase, table, steps
        )
        for i, seeded in enumerate(seeds):
            if seeded:
                trial: Dict[Optional[str], TopKList] = {}
                for seed in seeded:
                    self._offer_split(seed, table, steps, trial)
                kept = [s for s in walked[i] if not self._dominated(s, trial)]
                stats.partitions_pruned += len(walked[i]) - len(kept)
                walked[i] = kept

    def _cost_splits(
        self, splits: Sequence[_Split], phase: int, table: _Table, steps: _Steps
    ) -> None:
        """Cost the join steps of ``splits`` in columns: per split not yet
        in ``steps``, each pair of views its inputs present
        (:meth:`_views`) is filed under its two presorted flags, and each
        flag pair of the level is one coster call — the ``(left rels,
        right rels)`` pairs in, one cost list per join method out.  View
        pairs and their per-method costs go to ``steps``, where
        :meth:`_offer_split` reads both.
        """
        rels, views = self._rels, self._views
        # (left presorted, right presorted) -> (view pair slots, rel pairs)
        columns: Dict[Tuple[bool, bool], tuple] = defaultdict(lambda: ([], []))
        for left, right, _label, order_target, _orders, _bound in splits:
            if (left, right) in steps:
                continue
            steps[left, right] = slots = []
            pair = (rels[left], rels[right])
            for lview in views(left, order_target, table):
                for rview in views(right, order_target, table):
                    slots.append(slot := [lview, rview, None])
                    column = columns[lview[0], rview[0]]
                    column[0].append(slot)
                    column[1].append(pair)
        for (lps, rps), (slots, pairs) in columns.items():
            costs = self.coster.prefetch_join_steps(phase, lps, rps, pairs)
            for slot, step in zip(slots, zip(*costs)):
                slot[2] = step

    def _views(
        self, mask: int, order_target: Optional[str], table: _Table
    ) -> List[_View]:
        """What a filed subset offers a join on ``order_target``, ascending
        by cost: *unsorted* — the ``top_k`` cheapest entries of its buckets
        of any other order, merged stably (bucket insertion order, then
        within-bucket order, settles equal costs; one bucket hands out its
        own lists) — and *sorted*, the ``order_target`` bucket, kept apart.
        """
        buckets = table[mask]
        held = None if order_target is None else buckets.get(order_target)
        if held is None and mask in self._unsorted:
            return self._unsorted[mask]
        rest = [bucket for bucket in buckets.values() if bucket is not held]
        views: List[_View] = []
        if len(rest) == 1:
            views.append((False, rest[0].costs, rest[0].entries))
        elif rest:
            ranked = [item for bucket in rest for item in bucket.items()]
            ranked.sort(key=_cost_of)
            views.append((False, *zip(*ranked[: self.top_k])))
        if held is None:
            self._unsorted[mask] = views
        else:
            views.append((True, held.costs, held.entries))
        return views

    def _build_subset(
        self,
        mask: int,
        splits: Sequence[_Split],
        table: _Table,
        steps: _Steps,
        stats: OptimizerStats,
    ) -> None:
        """File the retained entries of one subset, per output order:
        its splits offered in the order given (ascending submask) into
        fresh buckets.
        """
        buckets: Dict[Optional[str], TopKList[DPEntry]] = {}
        for split in splits:
            self._offer_split(split, table, steps, buckets, stats)
        if buckets:
            table[mask] = buckets

    def _offer_split(
        self,
        split: _Split,
        table: _Table,
        steps: _Steps,
        buckets: Dict[Optional[str], TopKList],
        stats: Optional[OptimizerStats] = None,
    ) -> None:
        """Offer one split's candidates to ``buckets``, per output order.

        Costs first: a candidate's total is compared with its bucket's
        worst retained cost and, if the bucket has room or it is strictly
        below, seated in the bucket's lists in place — :meth:`TopKList.offer`'s
        rule and arrival-order tie-break, without the call.  What it admits
        is a :class:`DPEntry` pointing back at the two entries joined — no
        plan node is built.
        Without ``stats`` this is :meth:`_prune_level`'s dry run: the
        same totals are seated, nothing is counted.

        One Proposition 3.1 walk per pair of input views, not of order
        buckets: rounded addition is monotone (``a <= b`` gives ``fl(a + c)
        <= fl(b + c)``), so under one flag pair and method — one ``step +
        writes`` — the ``top_k`` smallest totals are the top sums of the
        merged views and every bucket's cost list is bit-identical to a
        walk per bucket pair; only which of several bit-equal totals fills
        a tail slot at ``top_k > 1`` differs: arrival order settles it.
        """
        space, top_k, writes = self.space, self.top_k, self._writes
        left, right, label, order_target, orders, _bound = split
        for mask in (left, right):  # asked of the coster once per run
            if mask not in writes:
                writes[mask] = self.coster.write_cost(self._rels[mask])
        # Per method: its output order, that order's bucket and the child
        # writes its candidates pay.  A pipelined nested-loop join streams
        # its outer (left) input: no materialisation write for it.
        rows = []
        for (method, streams), order in zip(self._methods, orders):
            if order not in buckets:
                buckets[order] = TopKList(top_k)
            bucket = buckets[order]
            write = writes[right] + (0.0 if streams else writes[left])
            rows.append((method, order, bucket.costs, bucket.entries, write))
        probes = merged = 0
        for (_, lcosts, lentries), (_, rcosts, rentries), costs in steps[left, right]:
            combos, probed = top_sums(lcosts, rcosts, top_k)
            probes += probed
            merged += len(combos)
            for (method, order, held, kept, write_children), step in zip(rows, costs):
                for combined, li, ri in combos:
                    total = combined + step + write_children
                    if len(held) < top_k or total < held[-1]:
                        if len(held) == top_k:  # the worst makes room
                            del held[-1], kept[-1]
                        at = bisect_right(held, total)  # after equal costs
                        held.insert(at, total)
                        kept.insert(at, DPEntry(total, order, (
                            space, lentries[li], rentries[ri],
                            method, label, order_target,
                        )))
        if stats is not None:
            stats.merge_probes += probes
            stats.entries_offered += merged * len(rows)

    @staticmethod
    def _dominated(split: _Split, buckets: Dict[Optional[str], TopKList]) -> bool:
        """Chen & Schneider partition prune (sound, never affects results).

        The split is skipped only when its lower bound *strictly*
        exceeds the worst retained cost of every order bucket it could
        feed (one per method) — so no entry that could ever be kept (or
        tie) is lost.
        """
        worst = None
        for key in split[4]:
            bucket = buckets.get(key)
            if bucket is None:
                return False  # an open bucket accepts anything
            bucket_worst = bucket.worst_cost()
            if bucket_worst is None:
                return False  # bucket not full yet
            worst = bucket_worst if worst is None else max(worst, bucket_worst)
        return split[5] > worst

    def _finalize(
        self,
        full: FrozenSet[str],
        query: JoinQuery,
        buckets: Dict[Optional[str], "TopKList[DPEntry]"],
    ) -> List[PlanChoice]:
        """Charge required-order enforcement, rank the root's entries and
        build the plans of the best ``top_k`` (projection on top)."""
        phase = max(0, len(full) - 2)
        needs_order = query.required_order is not None and len(full) > 1
        project = getattr(query, "projection_ratio", 1.0) < 1.0
        ranked = []
        for bucket in buckets.values():
            for total, entry in bucket.items():
                enforce = needs_order and entry.order != query.required_order
                if enforce:
                    total += self.coster.write_cost(full)
                    total += self.coster.final_sort_cost(full, phase)
                ranked.append((total, enforce, entry))
        ranked.sort(key=_cost_of)  # stable: ties stay in bucket order
        choices: List[PlanChoice] = []
        for total, enforce, entry in ranked[: self.top_k]:
            node: PlanNode = entry.node
            if enforce:
                node = Sort(child=node, sort_order=query.required_order)
            if project:
                # Projection streams at the block root: free, and the
                # plan's output size reports the projected width.
                node = Project(child=node)
            choices.append(PlanChoice(plan=Plan(node), objective=total))
        return choices

    # ------------------------------------------------------------------
    # SPJU blocks
    # ------------------------------------------------------------------

    def _optimize_union(self, query: UnionQuery) -> OptimizationResult:
        """Optimize a union block: per-arm DP + union overhead.

        Arms share no predicates, so each arm's dag is independent; the
        chosen arm plans are combined under one Union root.  Arm outputs
        stream under UNION ALL (no materialisation write — the same
        invariant as the DP root) and are charged projected writes plus a
        dedup sort under DISTINCT, via :meth:`Coster.union_overhead`.
        """
        if not self.space.supports_union:
            raise OptimizerConfigError(
                f"query is a union block but plan space {self.space.key!r} "
                "does not admit union plans; use plan_space='spju' "
                "(or another '+union' space)"
            )
        if self.coster.requires_ordered_phases:
            raise OptimizerConfigError(
                f"{type(self.coster).__name__} needs canonical join phases; "
                "union plans do not have them"
            )
        self.coster.bind(query, self.context)
        stats = OptimizerStats()
        evals_before = self.coster.cost_model.eval_count

        arm_nodes: List[PlanNode] = []
        arm_info = []
        total = 0.0
        explored = 0
        for arm in query.arms:
            names = [r.name for r in arm.relations]
            table = self._run_dp(query, names, stats)
            full = frozenset(names)
            buckets = table.get((1 << len(names)) - 1)
            if buckets is None:
                raise QueryError(
                    f"no plan found for union arm over {sorted(names)}: its "
                    "join graph is disconnected (pass "
                    "allow_cross_products=True to permit cross joins)"
                )
            best = min(buckets.values(), key=lambda b: b.costs[0]).entries[0]
            node: PlanNode = best.node
            materialised = isinstance(node, Join)
            if arm.projection_ratio < 1.0:
                node = Project(child=node)
            arm_nodes.append(node)
            arm_info.append((full, arm.projection_ratio, materialised))
            total += best.cost
            explored += len(table)

        total += self.coster.union_overhead(arm_info, query.distinct)
        root = UnionNode(inputs=tuple(arm_nodes), distinct=query.distinct)
        choice = PlanChoice(plan=Plan(root), objective=total)
        stats.subsets_explored = explored
        stats.formula_evaluations = self.coster.cost_model.eval_count - evals_before
        return OptimizationResult(best=choice, candidates=[choice], stats=stats)
