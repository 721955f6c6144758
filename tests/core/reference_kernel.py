"""Pure-python reference implementations of the distribution kernel.

This module is the *behavioral specification* of the vectorized kernel in
``repro.core.distributions`` / ``repro.costmodel.expected_cost``: every
function here spells out the intended mathematics with plain loops and
``math`` — no numpy — so the differential oracle suite
(``test_kernel_oracle.py``) can check the array code against something a
reviewer can verify by reading.  The benchmark suite
(``benchmarks/test_bench_kernel.py``) times the same functions as the
"before" side of its speedup ratios.

If kernel semantics change (new merge rule, different rebucket strategy,
changed survival-table convention), change this file in the same commit —
see CONTRIBUTING.md.  Tolerances for comparisons come from
``repro.core.floats``; the reference deliberately accumulates sums in
plain left-to-right order, so parity with the kernel is asserted within
those tolerances, not bitwise.

All functions work on parallel ``(values, probs)`` lists of floats with
``sum(probs) == 1`` (up to drift); they neither require nor return
``DiscreteDistribution`` instances.
"""

from __future__ import annotations

from typing import Callable, Dict, List, Mapping, Optional, Sequence, Tuple

Support = Tuple[List[float], List[float]]

#: The negligible-mass threshold (``repro.core.floats.MASS_EPS``): both
#: the Bayes-net enumeration and its reference drop partial assignments
#: whose running mass is at or below this.
MASS_EPS = 1e-15


def normalize(values: Sequence[float], probs: Sequence[float]) -> Support:
    """Sort by value, merge duplicates, drop zero mass, renormalize.

    Mirrors the ``DiscreteDistribution`` constructor's canonicalization.
    """
    if len(values) != len(probs) or not values:
        raise ValueError("values and probs must be equal-length, non-empty")
    merged = {}
    for v, p in sorted(zip(values, probs)):
        if p < 0.0:
            raise ValueError(f"negative probability {p!r}")
        merged[float(v)] = merged.get(float(v), 0.0) + float(p)
    total = sum(merged.values())
    if total <= 0.0:
        raise ValueError("total probability mass must be positive")
    out_v = [v for v, p in merged.items() if p > 0.0]
    out_p = [merged[v] / total for v in out_v]
    return out_v, out_p


def expectation(
    values: Sequence[float],
    probs: Sequence[float],
    fn: Optional[Callable[[float], float]] = None,
) -> float:
    """``E[fn(X)]`` (or ``E[X]``) as a plain left-to-right sum."""
    total = 0.0
    for v, p in zip(values, probs):
        total += (fn(v) if fn is not None else v) * p
    return total


def cdf(values: Sequence[float], probs: Sequence[float], x: float) -> float:
    """``Pr(X <= x)``."""
    return sum(p for v, p in zip(values, probs) if v <= x)


def sf(values: Sequence[float], probs: Sequence[float], x: float) -> float:
    """Survival ``Pr(X > x)``, via the same complement the kernel uses."""
    return 1.0 - cdf(values, probs, x)


def prob_of(values: Sequence[float], probs: Sequence[float], x: float) -> float:
    """Point mass at ``x`` (0.0 when ``x`` is not a support point)."""
    for v, p in zip(values, probs):
        if v == x:
            return p
    return 0.0


def convolve(a: Support, b: Support) -> Support:
    """Distribution of ``X + Y`` for independent ``X``, ``Y``."""
    av, ap = a
    bv, bp = b
    values = [x + y for x in av for y in bv]
    probs = [px * py for px in ap for py in bp]
    return normalize(values, probs)


def multiply(a: Support, b: Support) -> Support:
    """Distribution of ``X · Y`` for independent ``X``, ``Y``."""
    av, ap = a
    bv, bp = b
    values = [x * y for x in av for y in bv]
    probs = [px * py for px in ap for py in bp]
    return normalize(values, probs)


def mixture(components: Sequence[Tuple[Support, float]]) -> Support:
    """Weighted mixture of component distributions."""
    values: List[float] = []
    probs: List[float] = []
    for (cv, cp), w in components:
        values.extend(cv)
        probs.extend(p * w for p in cp)
    return normalize(values, probs)


def _merge_by_edges(values: Sequence[float], probs: Sequence[float],
                    edges: Sequence[int]) -> Support:
    """Merge contiguous index segments to probability-weighted means."""
    bounds = [0, *edges, len(values)]
    out_v: List[float] = []
    out_p: List[float] = []
    for a, b in zip(bounds[:-1], bounds[1:]):
        if a >= b:
            continue
        mass = sum(probs[a:b])
        if mass <= 0.0:
            continue
        rep = sum(v * p for v, p in zip(values[a:b], probs[a:b])) / mass
        out_v.append(rep)
        out_p.append(mass)
    return normalize(out_v, out_p)


def rebucket(values: Sequence[float], probs: Sequence[float],
             n_buckets: int, strategy: str = "equidepth") -> Support:
    """Coarsen to at most ``n_buckets`` points, preserving the mean.

    Equidepth cuts where the running CDF crosses ``k / n_buckets``
    (with the kernel's ``1e-12`` slack); equiwidth cuts the value range
    into equal-width cells.  Both delegate the merge to
    :func:`_merge_by_edges`, exactly like the kernel.
    """
    if n_buckets < 1:
        raise ValueError("n_buckets must be >= 1")
    if len(values) <= n_buckets:
        return normalize(values, probs)
    if strategy == "equidepth":
        running: List[float] = []
        acc = 0.0
        for p in probs:
            acc += p
            running.append(acc)
        edges: List[int] = []
        for k in range(n_buckets - 1):
            t = (k + 1) / n_buckets
            idx = 0
            while idx < len(running) and running[idx] < t - 1e-12:
                idx += 1
            idx += 1
            if edges and idx <= edges[-1]:
                idx = edges[-1] + 1
            if idx >= len(values):
                break
            edges.append(idx)
    elif strategy == "equiwidth":
        lo, hi = values[0], values[-1]
        if hi == lo:
            return normalize(values, probs)
        width = (hi - lo) / n_buckets
        edges = []
        for k in range(1, n_buckets):
            cut = lo + k * width
            idx = sum(1 for v in values if v <= cut)
            if edges and idx <= edges[-1]:
                continue
            if 0 < idx < len(values):
                edges.append(idx)
    else:
        raise ValueError(f"unknown rebucket strategy {strategy!r}")
    return _merge_by_edges(values, probs, edges)


def expected_join_cost(
    cost_fn: Callable[[float, float, float], float],
    left: Support,
    right: Support,
    memory: Support,
) -> float:
    """Naive ``b_L · b_R · b_M`` expectation of a join-cost formula.

    The oracle for both the fast single-pair paths and the batched
    evaluator: whatever route the kernel takes, the answer must agree
    with this triple loop within cost tolerances.
    """
    total = 0.0
    for lv, lp in zip(*left):
        for rv, rp in zip(*right):
            for mv, mp in zip(*memory):
                total += lp * rp * mp * cost_fn(lv, rv, mv)
    return total


def markov_marginal(
    initial: Sequence[float],
    transition: Sequence[Sequence[float]],
    phase: int,
) -> List[float]:
    """Phase-``phase`` marginal ``m_0 · T^phase`` as plain loops.

    The oracle for ``MarkovParameter.marginal``:
    one vector-matrix product per phase, each entry a left-to-right sum
    over the source states.
    """
    if phase < 0:
        raise ValueError("phase must be >= 0")
    m = [float(p) for p in initial]
    n = len(m)
    for _ in range(phase):
        m = [
            sum(m[i] * float(transition[i][j]) for i in range(n))
            for j in range(n)
        ]
    return m


def markov_sequences(
    states: Sequence[float],
    initial: Sequence[float],
    transition: Sequence[Sequence[float]],
    length: int,
) -> List[Tuple[Tuple[float, ...], float]]:
    """All positive-probability state sequences, depth-first.

    The historical scalar walk ``MarkovParameter.sequence_table``
    replaced: recurse state by state in declaration order, multiply the
    step probability in left-to-right, and never descend into a branch
    whose running probability is exactly zero.  Row order and every
    surviving probability must match the vectorized table bit for bit.
    """
    if length < 0:
        raise ValueError("length must be >= 0")
    if length == 0:
        return [((), 1.0)]
    n = len(states)
    out: List[Tuple[Tuple[float, ...], float]] = []

    def walk(prefix: List[int], prob: float) -> None:
        # Exact zero on purpose: the prune mirrors the kernel's
        # ``probs != 0.0`` keep mask.
        if prob == 0.0:
            return
        if len(prefix) == length:
            out.append((tuple(float(states[i]) for i in prefix), prob))
            return
        for j in range(n):
            step = (
                float(initial[j])
                if not prefix
                else prob * float(transition[prefix[-1]][j])
            )
            walk(prefix + [j], step)

    walk([], 1.0)
    return out


#: One Bayes-net node for :func:`bayesnet_joint`: ``(name, values,
#: parents, cpt)`` with the cpt keyed by parent-value tuples (roots use
#: the empty tuple).  Nodes are listed parents-first, exactly like
#: ``DiscreteBayesNet.add_node`` calls.
BayesNode = Tuple[
    str,
    Sequence[float],
    Sequence[str],
    Mapping[Tuple[float, ...], Sequence[float]],
]


def bayesnet_joint(
    nodes: Sequence[BayesNode],
) -> List[Tuple[Dict[str, float], float]]:
    """Exact joint enumeration by the recursive depth-first walk.

    The behavioral spec for ``DiscreteBayesNet.joint_arrays``: expand
    node values in declaration order at every level, multiply cpt
    entries in left-to-right, skip zero cpt entries at the level that
    introduces them, and drop any partial (or full) assignment whose
    running mass is negligible (``<= MASS_EPS``) on entry.
    """
    if not nodes:
        return [({}, 1.0)]
    out: List[Tuple[Dict[str, float], float]] = []

    def walk(assignment: Dict[str, float], prob: float, depth: int) -> None:
        if prob <= MASS_EPS:
            return
        if depth == len(nodes):
            out.append((dict(assignment), prob))
            return
        name, values, parents, cpt = nodes[depth]
        row = cpt[tuple(assignment[p] for p in parents)]
        for v, p in zip(values, row):
            if p == 0.0:
                continue
            assignment[name] = float(v)
            walk(assignment, prob * float(p), depth + 1)
            del assignment[name]

    walk({}, 1.0, 0)
    return out


def bayesnet_expectation(
    joint: Sequence[Tuple[Dict[str, float], float]],
    fn: Callable[[Dict[str, float]], float],
) -> float:
    """``E[fn(X)]`` over an enumerated joint, left-to-right."""
    total = 0.0
    for assignment, prob in joint:
        total += prob * fn(assignment)
    return total
