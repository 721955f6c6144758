"""Join, sort and scan cost formulas (page I/Os), with breakpoints.

These are the paper's simplified Shapiro-style [Sha86] formulas (footnote
2 explicitly endorses simple formulas over "complex code").  All costs are
page I/Os; ``memory`` is the number of available buffer pages.

The formulas are deliberately *discontinuous step functions of memory* —
that discontinuity is the entire reason LEC and LSC plans diverge:

* sort-merge:  ``2(|A|+|B|)`` when ``M > sqrt(L)``, ``4(|A|+|B|)`` when
  ``sqrt(S) < M <= sqrt(L)``, ``6(|A|+|B|)`` when ``M <= sqrt(S)``
  (``L``/``S`` the larger/smaller input);
* Grace hash:  ``|A|+|B|`` when the smaller input fits in memory,
  ``2(|A|+|B|)`` when ``M >= sqrt(S)``, ``4(|A|+|B|)`` below that
  (recursive partitioning);
* nested loop: ``|A|+|B|`` when the smaller side fits (``M >= S+2``),
  ``|A| + |A|·|B|`` otherwise — exactly the paper's Section 3.6.2 form.

Each formula has a companion ``*_breakpoints`` function returning the
memory thresholds where the cost jumps.  The level-set-aware bucketing
strategy of Section 3.7 is built directly on these.
"""

from __future__ import annotations

import math
from typing import List

import numpy as np

from ..plans.properties import AccessPath, JoinMethod

__all__ = [
    "nested_loop_cost",
    "block_nested_loop_cost",
    "sort_merge_cost",
    "sort_merge_cost_with_orders",
    "grace_hash_cost",
    "hybrid_hash_cost",
    "join_cost",
    "join_cost_vec",
    "join_breakpoints",
    "external_sort_cost",
    "external_sort_cost_vec",
    "sort_merge_cost_with_orders_vec",
    "sort_breakpoints",
    "scan_cost",
    "MIN_MEMORY_PAGES",
]

#: Below this many buffer pages no operator can run; costs are clamped as
#: if this minimum were available.
MIN_MEMORY_PAGES = 3.0


def _check(outer: float, inner: float, memory: float) -> float:
    if outer < 0 or inner < 0:
        raise ValueError("relation sizes must be non-negative")
    if memory <= 0:
        raise ValueError("memory must be positive")
    return max(memory, MIN_MEMORY_PAGES)


def nested_loop_cost(outer: float, inner: float, memory: float) -> float:
    """Paper nested-loop formula: ``|A|+|B|`` or ``|A| + |A|·|B|``.

    When the smaller relation (plus an input and an output buffer) fits in
    memory it is read once and kept resident; otherwise the inner relation
    is re-scanned for every outer page.
    """
    memory = _check(outer, inner, memory)
    smaller = min(outer, inner)
    if memory >= smaller + 2:
        return outer + inner
    return outer + outer * inner


def nested_loop_breakpoints(outer: float, inner: float) -> List[float]:
    """Memory thresholds where :func:`nested_loop_cost` jumps."""
    return [min(outer, inner) + 2.0]


def block_nested_loop_cost(outer: float, inner: float, memory: float) -> float:
    """Block nested loop: ``|A| + ceil(|A|/(M-2))·|B|``.

    The refinement method: outer is consumed in memory-sized blocks, so
    the cost decreases smoothly (step-wise) with memory instead of in one
    jump — a useful contrast case for the bucketing experiments.
    """
    memory = _check(outer, inner, memory)
    block = max(1.0, memory - 2.0)
    n_blocks = math.ceil(outer / block) if outer > 0 else 0
    return outer + n_blocks * inner


def block_nested_loop_breakpoints(outer: float, inner: float) -> List[float]:
    """Memory values where the number of outer blocks changes.

    There are ``O(sqrt(outer))`` distinct block counts that matter; we
    enumerate thresholds for block counts up to a small cap and dedupe.
    """
    if outer <= 0:
        return []
    points = set()
    k = 1
    while k * k <= outer + 1 and k <= 64:
        points.add(outer / k + 2.0)
        points.add(outer / max(1, math.ceil(outer / k)) + 2.0)
        k += 1
    return sorted(p for p in points if p > MIN_MEMORY_PAGES)


def sort_merge_cost(outer: float, inner: float, memory: float) -> float:
    """Paper sort-merge formula: 2, 4 or 6 passes worth of I/O."""
    return sort_merge_cost_with_orders(outer, inner, memory, False, False)


def sort_merge_cost_with_orders(
    outer: float,
    inner: float,
    memory: float,
    outer_presorted: bool,
    inner_presorted: bool,
) -> float:
    """Sort-merge cost with interesting-order credit.

    The paper's ``k·(|A|+|B|)`` (k = 2/4/6 by memory regime) charges each
    input ``k`` passes: one merge read plus ``k-1`` passes of sorting
    work.  An input already sorted on the join key skips its sorting
    passes and pays the merge read only, so with both inputs presorted
    the join degenerates to a pure merge, ``|A|+|B|``.
    """
    memory = _check(outer, inner, memory)
    larger = max(outer, inner)
    smaller = min(outer, inner)
    if memory > math.sqrt(larger):
        k = 2.0
    elif memory > math.sqrt(smaller):
        k = 4.0
    else:
        k = 6.0
    outer_mult = 1.0 if outer_presorted else k
    inner_mult = 1.0 if inner_presorted else k
    return outer_mult * outer + inner_mult * inner


def sort_merge_breakpoints(outer: float, inner: float) -> List[float]:
    """Memory thresholds where :func:`sort_merge_cost` jumps."""
    smaller, larger = sorted((outer, inner))
    return sorted({math.sqrt(smaller), math.sqrt(larger)})


def grace_hash_cost(outer: float, inner: float, memory: float) -> float:
    """Grace hash join: in-memory, two-pass, or recursive partitioning."""
    memory = _check(outer, inner, memory)
    total = outer + inner
    smaller = min(outer, inner)
    if memory >= smaller + 2:
        return total
    if memory >= math.sqrt(smaller):
        return 2.0 * total
    return 4.0 * total


def grace_hash_breakpoints(outer: float, inner: float) -> List[float]:
    """Memory thresholds where :func:`grace_hash_cost` jumps."""
    smaller = min(outer, inner)
    return sorted({math.sqrt(smaller), smaller + 2.0})


def hybrid_hash_cost(outer: float, inner: float, memory: float) -> float:
    """Hybrid hash join: Grace hash that keeps one partition resident.

    Standard approximation: of the smaller relation ``S``, a fraction
    ``min(1, M/S)`` stays in memory and never hits disk, so the
    re-read/re-write cost scales with the spilled fraction.
    """
    memory = _check(outer, inner, memory)
    total = outer + inner
    smaller = min(outer, inner)
    if smaller <= 0:
        return total
    if memory >= smaller + 2:
        return total
    if memory < math.sqrt(smaller):
        return 4.0 * total
    resident_fraction = min(1.0, memory / (smaller + 2.0))
    spilled = 1.0 - resident_fraction
    return total + spilled * total


def hybrid_hash_breakpoints(outer: float, inner: float) -> List[float]:
    """Region edges of :func:`hybrid_hash_cost` (the middle region is smooth)."""
    smaller = min(outer, inner)
    return sorted({math.sqrt(smaller), smaller + 2.0})


# ----------------------------------------------------------------------
# Vectorized variants
# ----------------------------------------------------------------------
#
# Array counterparts of the scalar formulas above, used by the batched
# expected-cost paths.  Each ``*_vec`` reproduces its scalar twin's
# arithmetic *operation for operation* (same multiply/add order, same
# ``sqrt``/comparison structure, branches as ``np.where`` masks), so an
# element of a vectorized grid is bit-identical to the scalar call on the
# same inputs.  Keep them in lockstep with the scalar versions.


def _check_vec(outer: np.ndarray, inner: np.ndarray, memory: np.ndarray) -> np.ndarray:
    if (outer < 0).any() or (inner < 0).any():
        raise ValueError("relation sizes must be non-negative")
    if (memory <= 0).any():
        raise ValueError("memory must be positive")
    return np.maximum(memory, MIN_MEMORY_PAGES)


def nested_loop_cost_vec(
    outer: np.ndarray, inner: np.ndarray, memory: np.ndarray
) -> np.ndarray:
    """Vectorized :func:`nested_loop_cost`."""
    memory = _check_vec(outer, inner, memory)
    smaller = np.minimum(outer, inner)
    return np.where(memory >= smaller + 2, outer + inner, outer + outer * inner)


def block_nested_loop_cost_vec(
    outer: np.ndarray, inner: np.ndarray, memory: np.ndarray
) -> np.ndarray:
    """Vectorized :func:`block_nested_loop_cost`."""
    memory = _check_vec(outer, inner, memory)
    block = np.maximum(1.0, memory - 2.0)
    n_blocks = np.where(outer > 0, np.ceil(outer / block), 0.0)
    return outer + n_blocks * inner


def sort_merge_cost_with_orders_vec(
    outer: np.ndarray,
    inner: np.ndarray,
    memory: np.ndarray,
    outer_presorted: bool,
    inner_presorted: bool,
) -> np.ndarray:
    """Vectorized :func:`sort_merge_cost_with_orders`."""
    memory = _check_vec(outer, inner, memory)
    larger = np.maximum(outer, inner)
    smaller = np.minimum(outer, inner)
    k = np.where(
        memory > np.sqrt(larger),
        2.0,
        np.where(memory > np.sqrt(smaller), 4.0, 6.0),
    )
    outer_mult = 1.0 if outer_presorted else k
    inner_mult = 1.0 if inner_presorted else k
    return outer_mult * outer + inner_mult * inner


def sort_merge_cost_vec(
    outer: np.ndarray, inner: np.ndarray, memory: np.ndarray
) -> np.ndarray:
    """Vectorized :func:`sort_merge_cost`."""
    return sort_merge_cost_with_orders_vec(outer, inner, memory, False, False)


def grace_hash_cost_vec(
    outer: np.ndarray, inner: np.ndarray, memory: np.ndarray
) -> np.ndarray:
    """Vectorized :func:`grace_hash_cost`."""
    memory = _check_vec(outer, inner, memory)
    total = outer + inner
    smaller = np.minimum(outer, inner)
    return np.where(
        memory >= smaller + 2,
        total,
        np.where(memory >= np.sqrt(smaller), 2.0 * total, 4.0 * total),
    )


def hybrid_hash_cost_vec(
    outer: np.ndarray, inner: np.ndarray, memory: np.ndarray
) -> np.ndarray:
    """Vectorized :func:`hybrid_hash_cost`."""
    memory = _check_vec(outer, inner, memory)
    total = outer + inner
    smaller = np.minimum(outer, inner)
    resident_fraction = np.minimum(1.0, memory / (smaller + 2.0))
    spilled = 1.0 - resident_fraction
    partial = total + spilled * total
    out = np.where(memory < np.sqrt(smaller), 4.0 * total, partial)
    out = np.where(memory >= smaller + 2, total, out)
    return np.where(smaller <= 0, total, out)


def external_sort_cost_vec(pages: np.ndarray, memory: np.ndarray) -> np.ndarray:
    """Vectorized :func:`external_sort_cost`.

    The merge-pass count ``ceil(log(n_runs, fan_in))`` is evaluated with
    the scalar ``math.log`` per *unique* ``(n_runs, fan_in)`` pair: numpy's
    vectorized log is not guaranteed bit-identical to libm's, and a 1-ulp
    flip under the ceil at an integral ratio would change the pass count.
    The unique pairs are few (small integers), so this stays cheap.
    """
    pages = np.asarray(pages, dtype=float)
    memory = np.asarray(memory, dtype=float)
    if np.any(pages < 0):
        raise ValueError("pages must be non-negative")
    if np.any(memory <= 0):
        raise ValueError("memory must be positive")
    memory = np.maximum(memory, MIN_MEMORY_PAGES)
    pages_b, memory_b = np.broadcast_arrays(pages, memory)
    n_runs = np.ceil(pages_b / memory_b)
    fan_in = np.maximum(2.0, np.floor(memory_b) - 1.0)
    merge_passes = np.zeros(pages_b.shape)
    multi = n_runs > 1.0
    if np.any(multi):
        nr = n_runs[multi]
        fi = fan_in[multi]
        lut = {
            (r, f): float(math.ceil(math.log(r, f)))
            for r, f in {*zip(nr.tolist(), fi.tolist())}
        }
        merge_passes[multi] = [lut[pair] for pair in zip(nr.tolist(), fi.tolist())]
    out = 2.0 * pages_b * (1.0 + merge_passes)
    out = np.where(pages_b <= memory_b, pages_b, out)
    return np.where(pages_b == 0, 0.0, out)


_JOIN_COST = {
    JoinMethod.NESTED_LOOP: nested_loop_cost,
    JoinMethod.BLOCK_NESTED_LOOP: block_nested_loop_cost,
    JoinMethod.SORT_MERGE: sort_merge_cost,
    JoinMethod.GRACE_HASH: grace_hash_cost,
    JoinMethod.HYBRID_HASH: hybrid_hash_cost,
}

_JOIN_COST_VEC = {
    JoinMethod.NESTED_LOOP: nested_loop_cost_vec,
    JoinMethod.BLOCK_NESTED_LOOP: block_nested_loop_cost_vec,
    JoinMethod.SORT_MERGE: sort_merge_cost_vec,
    JoinMethod.GRACE_HASH: grace_hash_cost_vec,
    JoinMethod.HYBRID_HASH: hybrid_hash_cost_vec,
}

_JOIN_BREAKPOINTS = {
    JoinMethod.NESTED_LOOP: nested_loop_breakpoints,
    JoinMethod.BLOCK_NESTED_LOOP: block_nested_loop_breakpoints,
    JoinMethod.SORT_MERGE: sort_merge_breakpoints,
    JoinMethod.GRACE_HASH: grace_hash_breakpoints,
    JoinMethod.HYBRID_HASH: hybrid_hash_breakpoints,
}


def join_cost(
    method: JoinMethod, outer: float, inner: float, memory: float
) -> float:
    """Dispatch to the cost formula for ``method``."""
    return _JOIN_COST[method](outer, inner, memory)


def join_cost_vec(
    method: JoinMethod, outer: np.ndarray, inner: np.ndarray, memory: np.ndarray
) -> np.ndarray:
    """Dispatch to the vectorized cost formula for ``method``."""
    return _JOIN_COST_VEC[method](outer, inner, memory)


def join_breakpoints(method: JoinMethod, outer: float, inner: float) -> List[float]:
    """Dispatch to the breakpoint list for ``method``."""
    return _JOIN_BREAKPOINTS[method](outer, inner)


def external_sort_cost(pages: float, memory: float) -> float:
    """External merge sort: ``2 · pages · n_passes`` page I/Os.

    One pass forms sorted runs of ``memory`` pages; each merge pass has
    fan-in ``memory - 1``.  A relation that fits in memory costs a single
    read (``pages``) — it is sorted in place and streamed out.
    """
    if pages < 0:
        raise ValueError("pages must be non-negative")
    if memory <= 0:
        raise ValueError("memory must be positive")
    memory = max(memory, MIN_MEMORY_PAGES)
    if pages == 0:
        return 0.0
    if pages <= memory:
        return pages
    n_runs = math.ceil(pages / memory)
    fan_in = max(2, int(memory) - 1)
    merge_passes = math.ceil(math.log(n_runs, fan_in)) if n_runs > 1 else 0
    return 2.0 * pages * (1 + merge_passes)


def sort_breakpoints(pages: float) -> List[float]:
    """Memory thresholds where :func:`external_sort_cost` changes regime:
    for each cost level above ``MIN_MEMORY_PAGES``, the smallest float
    memory that reaches it, ascending.  The cost never rises as memory
    grows, so each edge is bisected on the function itself.
    """
    edges: List[float] = []
    lo, level = MIN_MEMORY_PAGES, external_sort_cost(pages, MIN_MEMORY_PAGES)
    while level > pages:  # a sort that fits in memory costs ``pages``
        hi = float(pages)
        while True:
            mid = (lo + hi) / 2.0
            if not lo < mid < hi:
                break
            lo, hi = (lo, mid) if external_sort_cost(pages, mid) < level else (mid, hi)
        edges.append(hi)
        lo, level = hi, external_sort_cost(pages, hi)
    return edges


def scan_cost(
    access: AccessPath,
    base_pages: float,
    selectivity: float = 1.0,
    rows: float = 0.0,
    index_height: int = 2,
    clustered: bool = True,
) -> float:
    """Cost of producing a (possibly filtered) base-relation stream.

    Unfiltered full scans cost nothing here: the consuming join's formula
    already charges for reading its inputs.  A *filtering* scan must
    materialise its reduced output, so it pays the read plus the write of
    the filtered pages.  Index scans pay the index descent plus the
    matching data pages (all rows' pages when unclustered, the selected
    fraction when clustered).
    """
    if not 0.0 <= selectivity <= 1.0:
        raise ValueError("selectivity must be in [0, 1]")
    if base_pages < 0:
        raise ValueError("base_pages must be non-negative")
    if access is AccessPath.FULL_SCAN:
        if selectivity >= 1.0:
            return 0.0
        out_pages = max(1.0, base_pages * selectivity)
        return base_pages + out_pages
    # Index scan.
    matching_rows = rows * selectivity
    if clustered:
        data_pages = max(1.0, base_pages * selectivity) if selectivity > 0 else 0.0
    else:
        data_pages = min(matching_rows, base_pages) if selectivity > 0 else 0.0
    out_pages = max(1.0, base_pages * selectivity) if selectivity < 1.0 else 0.0
    return index_height + data_pages + out_pages
