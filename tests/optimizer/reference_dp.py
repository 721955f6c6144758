"""The per-split level evaluation: the reference ``SystemRDP._level`` is held to.

:class:`PerSplitDP` is a :class:`~repro.optimizer.systemr.SystemRDP`
whose levels are evaluated in two moves, the way the engine did before
one pass per level: :meth:`PerSplitDP._cost_splits` files the level's
view pairs per presorted-flag pair and costs each column, then
:meth:`PerSplitDP._build_subset` offers each subset's splits, one
:meth:`PerSplitDP._offer_split` call each, which builds a
:class:`~repro.optimizer.systemr.DPEntry` per admitted candidate and
seats it in the bucket's lists in place.  ``test_level_parity.py``
asserts the library's pass leaves every ``(subset, order)`` bucket equal
to this one's.
"""

from __future__ import annotations

from bisect import bisect_right
from collections import defaultdict
from typing import Dict, List, Optional, Sequence, Tuple

from repro.optimizer.result import OptimizerStats
from repro.optimizer.systemr import DPEntry, SystemRDP, _Split, _Table
from repro.optimizer.topk import TopKList, top_sums

__all__ = ["PerSplitDP", "Recording"]

#: A level's step costs: (left mask, right mask) -> per pair of input
#: views, [left view, right view, one cost per join method].
_Steps = Dict[Tuple[int, int], List[list]]


class Recording(SystemRDP):
    """Keeps each block's table, and the flags of every view list handed
    out; mixed in before :class:`PerSplitDP` it records the reference."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self.tables, self.flags = [], set()

    def _run_dp(self, query, names, stats):
        table = super()._run_dp(query, names, stats)
        self.tables.append(table)
        return table

    def _views(self, mask, order_target, table):
        views = super()._views(mask, order_target, table)
        self.flags.add(tuple(flag for flag, _costs, _entries in views))
        return views


class PerSplitDP(SystemRDP):
    """A System-R engine that costs a level, then offers it split by split."""

    def _level(self, phase, level, walked, table, stats):
        steps = self._cost_splits(
            [split for splits in walked for split in splits], phase, table
        )
        for mask, splits in zip(level, walked):
            self._build_subset(mask, splits, table, steps, stats)

    def _cost_splits(self, splits: Sequence[_Split], phase: int, table: _Table) -> _Steps:
        """Cost the join steps of a level's ``splits`` in columns: per
        split, each pair of views its inputs present (:meth:`_views`) is
        filed under its two presorted flags, and each flag pair of the
        level is one coster call — the ``(left rels, right rels)`` pairs
        in, one cost list per join method out.  View pairs and their
        per-method costs come back per split, where :meth:`_offer_split`
        reads both.
        """
        rels, views = self._rels, self._views
        steps: _Steps = {}
        # (left presorted, right presorted) -> (view pair slots, rel pairs)
        columns: Dict[Tuple[bool, bool], tuple] = defaultdict(lambda: ([], []))
        for left, right, _label, order_target, _orders in splits:
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
        return steps

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
        stats: OptimizerStats,
    ) -> None:
        """Offer one split's candidates to ``buckets``, per output order.

        Costs first: a candidate's total is compared with its bucket's
        worst retained cost and, if the bucket has room or it is strictly
        below, seated in the bucket's lists in place — :meth:`TopKList.offer`'s
        rule and arrival-order tie-break, without the call.  What it admits
        is a :class:`DPEntry` pointing back at the two entries joined — no
        plan node is built.
        """
        space, top_k, writes = self.space, self.top_k, self._writes
        left, right, label, order_target, orders = split
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
        stats.merge_probes += probes
        stats.entries_offered += merged * len(rows)
