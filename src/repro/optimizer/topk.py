"""Top-k plan bookkeeping and the Proposition 3.1 combination merge.

Algorithm B extends the System-R dynamic program to retain the top ``c``
plans per dag node instead of the single best.  Combining the top ``c``
subplans for ``S_j`` with the top ``c`` access plans for ``A_j`` looks
like ``c²`` work, but Proposition 3.1 shows that because both lists are
sorted and the combined cost is the *sum* of the parts, only pairs
``(i, k)`` with ``i·k <= c`` can make the top ``c`` — at most
``c + c·ln c`` probes.  :func:`top_sums` walks exactly that probe set and
reports how many probes it made; :func:`merge_top_combinations` is its
validated public form, which experiment E8 checks against the bound.
"""

from __future__ import annotations

from bisect import bisect_right
from dataclasses import dataclass
from operator import itemgetter
from typing import Generic, List, Sequence, Tuple, TypeVar

__all__ = ["TopKList", "top_sums", "merge_top_combinations", "MergeResult"]

T = TypeVar("T")
_cost_of = itemgetter(0)


class TopKList(Generic[T]):
    """Maintains the ``k`` lowest-cost items seen, sorted ascending.

    Insertion is O(k) (the lists involved are tiny: ``k`` is the paper's
    ``c``, a small constant), and ties are broken by insertion order so
    results are deterministic.  ``costs`` and ``entries`` are the held
    costs and items as parallel ascending lists; the DP's hot loop
    probes them and seats its candidates in them directly, by
    :meth:`offer`'s rule (:meth:`~repro.optimizer.systemr.SystemRDP._offer_split`).
    """

    __slots__ = ("k", "costs", "entries")

    def __init__(self, k: int):
        if k < 1:
            raise ValueError("k must be >= 1")
        self.k = k
        self.costs: List[float] = []
        self.entries: List[T] = []

    def offer(self, cost: float, item: T) -> bool:
        """Insert if the item makes the current top k; return whether it did."""
        costs = self.costs
        if len(costs) == self.k and cost >= costs[-1]:
            return False
        # Bisect-right on cost alone: a new item sorts after every held
        # item of equal cost, which is the insertion-order tie-break.
        at = bisect_right(costs, cost)
        costs.insert(at, cost)
        self.entries.insert(at, item)
        if len(costs) > self.k:
            costs.pop()
            self.entries.pop()
        return True

    def items(self) -> List[Tuple[float, T]]:
        """The held items as ``(cost, item)`` pairs, ascending cost."""
        return list(zip(self.costs, self.entries))

    def best(self) -> Tuple[float, T]:
        """The single cheapest item; raises when empty."""
        if not self.costs:
            raise IndexError("TopKList is empty")
        return self.costs[0], self.entries[0]

    def __len__(self) -> int:
        return len(self.costs)

    def __bool__(self) -> bool:
        return bool(self.costs)


@dataclass
class MergeResult(Generic[T]):
    """Output of :func:`merge_top_combinations`.

    Attributes
    ----------
    combinations:
        Up to ``c`` ``(cost, left_index, right_index)`` triples, ascending.
    probes:
        Number of candidate pairs whose cost was computed — bounded by
        ``c + c·ln c`` (Proposition 3.1) and by ``len(left)·len(right)``.
    """

    combinations: List[Tuple[float, int, int]]
    probes: int


def top_sums(
    left_costs: Sequence[float], right_costs: Sequence[float], c: int
) -> Tuple[List[Tuple[float, int, int]], int]:
    """The Proposition 3.1 probe walk over two ascending cost lists.

    Probes exactly the pairs with ``(i+1)·(k+1) <= c`` — any pair beyond
    that frontier is dominated by at least ``c`` cheaper pairs — and
    returns the ``c`` cheapest ``(cost, i, k)`` triples, ascending with
    ties in probe order, plus the number of probes.  Inputs are trusted
    to be sorted (the DP passes bucket cost lists); with ``c = 1`` the
    walk is the single probe ``(0, 0)``.
    """
    if c == 1 and left_costs and right_costs:
        return [(left_costs[0] + right_costs[0], 0, 0)], 1
    probed = [
        (lc + rc, i, k)
        for i, lc in enumerate(left_costs[:c])
        for k, rc in enumerate(right_costs[: c // (i + 1)])
    ]
    probed.sort(key=_cost_of)  # stable: equal costs stay in probe order
    return probed[:c], len(probed)


def merge_top_combinations(
    left_costs: Sequence[float],
    right_costs: Sequence[float],
    c: int,
) -> MergeResult:
    """Top ``c`` sums ``left_costs[i] + right_costs[k]`` via Prop 3.1.

    The validated spelling of :func:`top_sums`: both inputs must be
    sorted ascending and ``c >= 1``.
    """
    if c < 1:
        raise ValueError("c must be >= 1")
    for name, seq in (("left_costs", left_costs), ("right_costs", right_costs)):
        for a, b in zip(seq, seq[1:]):
            if b < a:
                raise ValueError(f"{name} must be sorted ascending")
    combos, probes = top_sums(left_costs, right_costs, c)
    return MergeResult(combinations=combos, probes=probes)
