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
  partitions (the extension the paper defers).  Every split of every
  space is costed.
* **Integer subsets, costs first.** Inside the DP a relation set is an
  ``int`` mask over sorted-name bit numbers and a subset's splits are
  walked in ascending mask order — the order is part of the contract,
  because equal costs are settled by first arrival: split, then pair
  of input views, then method, then probe order.  What a run knows of a
  subset (names, write cost, unsorted view) is under the mask.  A
  candidate is a cost and a source, a bucket's survivors at the end of
  its level are entries — back-pointers — and a plan is built once at
  the root (:attr:`DPEntry.node`).
* **SPJU.** A :class:`~repro.plans.query.JoinQuery` that is actually a
  :class:`~repro.plans.spju.UnionQuery` is optimized arm by arm (the DP
  runs once per arm — predicates never cross arms) and combined under a
  single :class:`~repro.plans.nodes.Union` root, with the union's
  streaming/dedup overhead supplied by the coster.
"""

from __future__ import annotations

from bisect import bisect_right
from collections import defaultdict
from itertools import repeat
from operator import itemgetter
from typing import Callable, Dict, FrozenSet, Iterator, List, Optional, Sequence, Tuple

from ..core.bucketing import level_set_cuts
from ..costmodel.context import OptimizationContext
from ..costmodel.formulas import MIN_MEMORY_PAGES, external_sort_cost, join_breakpoints
from ..plans.nodes import Join, Plan, PlanNode, Project, Scan, Sort
from ..plans.nodes import Union as UnionNode
from ..plans.properties import AccessPath, JoinMethod, order_from_join
from ..plans.query import JoinQuery, QueryError
from ..plans.space import PlanSpace
from ..plans.spju import UnionQuery
from .costers import Coster
from .errors import OptimizerConfigError
from .result import OptimizationResult, OptimizerStats, PlanChoice
from .topk import TopKList, top_sums

__all__ = ["SystemRDP", "DPEntry", "memory_edges", "memory_cells"]

#: Table type: subset mask -> (output order -> retained entries); every
#: bucket in it holds at least one entry.
_Table = Dict[int, Dict[Optional[str], "TopKList[DPEntry]"]]
#: One joinable split: (left mask, right mask, predicate label, order
#: target, output order per join method).
_Split = Tuple[int, int, str, Optional[str], Tuple[Optional[str], ...]]
_cost_of = itemgetter(0)
#: The join methods whose costs step in memory at their breakpoints only.
_STEPS = frozenset((JoinMethod.NESTED_LOOP, JoinMethod.SORT_MERGE, JoinMethod.GRACE_HASH))
#: A join input as a split sees it: (presorted, ascending costs, entries).
_View = Tuple[bool, Sequence[float], Sequence["DPEntry"]]


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
        Optional shared :class:`~repro.costmodel.context.OptimizationContext`.
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
        #: The running block's subset mask -> relation names, one
        #: frozenset per table subset: the skeleton's (see :meth:`_run_dp`).
        self._rels: Dict[int, FrozenSet[str]] = {}
        #: Per-run cost state.  Mask -> what writing its output costs (a
        #: stored relation: 0.0).
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
        replay it as it is.

        A level is one :meth:`_level` pass: every split costed, one coster
        call per presorted-flag pair, then every subset's candidates
        offered in ascending-submask order.
        """
        table: _Table = {}
        self._writes, self._unsorted = {}, {}
        writes = self._writes
        pipelined = self.coster.cost_model.pipelined_methods
        self._methods = [(m, m in pipelined) for m in self.coster.methods]
        key = _skeleton_key(names, self.space, self.allow_cross_products, self.coster.methods)
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
            self._level(phase, level, walked, table, stats)
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
            levels.append((level, walked))
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
        order of each join method — derived once and served to the
        mirror split too, except under cross products, whose label names
        the *right* side's lowest.
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
                shared = (label, order_target, orders)
                if not self.allow_cross_products:
                    derived[left] = shared
            yield (left, right) + shared

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

    def _level(
        self,
        phase: int,
        level: Sequence[int],
        walked: Sequence[Sequence[_Split]],
        table: _Table,
        stats: OptimizerStats,
    ) -> None:
        """Evaluate one level in one pass and file its subsets' entries.

        Costs first, in columns: each split's pairs of input views
        (:meth:`_views`) are filed under their two presorted flags, and
        each flag pair of the level is one coster call — the ``(left
        rels, right rels)`` pairs in, one cost list per join method out —
        kept in the context (:meth:`OptimizationContext.column_costs`), so
        a warm run on it costs no step.  Then one loop over splits
        (ascending submask per subset), view pairs, methods and
        Proposition 3.1 combinations offers each candidate to its
        ``(subset, order)`` bucket as a plain ``(total, source)`` pair:
        admitted if the bucket has room or the total is strictly below
        its worst, seated after equal costs — :meth:`TopKList.offer`'s
        rule and arrival-order tie-break (at ``top_k = 1`` the walk is
        its one probe and a bucket its one best).  A :class:`DPEntry` is
        built only for what a bucket holds when the level ends, and a
        subset files its buckets in first-offer order.

        One Proposition 3.1 walk per pair of input views, not of order
        buckets: rounded addition is monotone (``a <= b`` gives ``fl(a + c)
        <= fl(b + c)``), so under one flag pair and method — one ``step +
        writes`` — the ``top_k`` smallest totals are the top sums of the
        merged views and every bucket's cost list is bit-identical to a
        walk per bucket pair; only which of several bit-equal totals fills
        a tail slot at ``top_k > 1`` differs: arrival order settles it.
        """
        rels, views, writes = self._rels, self._views, self._writes
        space, top_k, methods = self.space, self.top_k, self._methods
        # (left presorted, right presorted) -> (view pair slots, rel pairs)
        columns: Dict[Tuple[bool, bool], tuple] = defaultdict(lambda: ([], []))
        offered: List[list] = []  # per split: its [left view, right view, step costs]
        for splits in walked:
            for left, right, _label, order_target, _orders in splits:
                pair = (rels[left], rels[right])
                offered.append(slots := [])
                for lview in views(left, order_target, table):
                    for rview in views(right, order_target, table):
                        slots.append(slot := [lview, rview, None])
                        column = columns[lview[0], rview[0]]
                        column[0].append(slot)
                        column[1].append(pair)
        coster = self.coster
        identity = (*coster._memo_key(), coster.methods, phase)
        for (lps, rps), (slots, pairs) in columns.items():
            costs = coster.context.column_costs(
                (*identity, lps, rps, tuple(pairs)),
                lambda: coster.prefetch_join_steps(phase, lps, rps, pairs),
            )
            for slot, step in zip(slots, zip(*costs)):
                slot[2] = step

        probes = merged = 0
        offers = iter(offered)
        for mask, splits in zip(level, walked):
            # Order -> bucket; until the level ends a bucket's entries are
            # the sources of its held candidates.
            buckets: Dict[Optional[str], TopKList] = {}
            for (left, right, label, order_target, orders), slots in zip(splits, offers):
                for side in (left, right):  # asked of the coster once per run
                    if side not in writes:
                        writes[side] = coster.write_cost(rels[side])
                # Per method: its bucket and the child writes its candidates
                # pay.  A pipelined nested-loop join streams its outer (left)
                # input: no materialisation write for it.
                rows = []
                for (method, streams), order in zip(methods, orders):
                    bucket = buckets.get(order)
                    if bucket is None:
                        bucket = buckets[order] = TopKList(top_k)
                    write = writes[right] + (0.0 if streams else writes[left])
                    rows.append((method, bucket.costs, bucket.entries, write))
                for (_, lcosts, lentries), (_, rcosts, rentries), costs in slots:
                    if top_k == 1:  # one probe, (0, 0); a bucket holds its best
                        combined = lcosts[0] + rcosts[0]
                        for (method, held, kept, write_children), step in zip(rows, costs):
                            total = combined + step + write_children
                            if not held or total < held[0]:
                                held[:] = (total,)
                                kept[:] = ((
                                    space, lentries[0], rentries[0],
                                    method, label, order_target,
                                ),)
                        probes += 1
                        merged += 1
                        continue
                    combos, probed = top_sums(lcosts, rcosts, top_k)
                    probes += probed
                    merged += len(combos)
                    for (method, held, kept, write_children), step in zip(rows, costs):
                        for combined, li, ri in combos:
                            total = combined + step + write_children
                            if len(held) < top_k or total < held[-1]:
                                if len(held) == top_k:  # the worst makes room
                                    del held[-1], kept[-1]
                                at = bisect_right(held, total)  # after equal costs
                                held.insert(at, total)
                                kept.insert(at, (
                                    space, lentries[li], rentries[ri],
                                    method, label, order_target,
                                ))
            if buckets:
                for order, bucket in buckets.items():
                    bucket.entries = list(map(
                        DPEntry, bucket.costs, repeat(order), bucket.entries
                    ))
                table[mask] = buckets
        stats.merge_probes += probes
        stats.entries_offered += merged * len(methods)

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


def _skeleton_key(names, space: PlanSpace, allow_cross_products: bool, methods) -> tuple:
    """What a DP skeleton is kept under: nothing else changes what a run walks."""
    return (tuple(names), space.shape, allow_cross_products, tuple(methods))


def memory_edges(context: OptimizationContext, query: JoinQuery, plan_space,
                 allow_cross_products: bool, methods: Sequence[JoinMethod]) -> List[float]:
    """Each memory at which a join step of ``query``'s DP changes branch,
    ascending: every method's breakpoints at the input pages of each split
    (zig-zag and bushy ones too) in the skeleton a run kept on ``context``.
    Between two edges an NL, SM or GH step costs the same, bit for bit."""
    space = PlanSpace.parse(plan_space)
    key = _skeleton_key(query.relation_names(), space, allow_cross_products, methods)
    _, rels, levels = context.skeleton(key)
    pairs = {split[:2] for _, walked in levels for splits in walked for split in splits}
    masks = {mask for pair in pairs for mask in pair}
    pages = {mask: context.subset_pages(rels[mask]) for mask in masks}
    sides = {(pages[left], pages[right]) for left, right in pairs}
    return sorted({edge for left, right in sides for method in methods
                   for edge in join_breakpoints(method, left, right)})


def memory_cells(query, context, plan_space, allow_cross_products, cm) -> Callable:
    """Memory -> its level-set cell for the point DP just run on ``context``:
    the cell of :func:`~repro.core.bucketing.level_set_cuts` over the
    :func:`memory_edges` that holds the clamped memory (one on an edge is a
    cell of its own) and the required order's enforcer-sort cost.  Each
    memory is its own cell where a cost can move between edges: a method
    other than NL/SM/GH, a union block, a context of other statistics."""
    if (isinstance(query, UnionQuery) or not _STEPS.issuperset(cm.methods)
            or not context.matches(query)):
        return float
    edges = memory_edges(context, query, plan_space, allow_cross_products, cm.methods)
    cuts = level_set_cuts(edges)
    full = query.required_order and context.subset_pages(query.relation_names())

    def cell(m: float) -> tuple:
        at = max(m, MIN_MEMORY_PAGES)
        return bisect_right(cuts, at), full and external_sort_cost(full, m)

    return cell
