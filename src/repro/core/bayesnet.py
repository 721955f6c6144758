"""Discrete Bayesian networks over optimizer parameters (Section 4).

The paper assumes parameters are independent, noting: "If there are some
dependencies between the variables, but not too many, we can still
describe the distribution succinctly using a Bayesian network [Pea88].
We believe that the techniques that we present here will also be
applicable to that case."  This module makes that belief concrete: a
small discrete Bayes net (:class:`DiscreteBayesNet`) describes the joint
distribution of memory, selectivities and sizes — e.g. a latent *system
load* variable that simultaneously depresses available memory and shifts
selectivities — and :class:`~repro.optimizer.costers` gains a
``BayesNetCoster`` (see :mod:`repro.optimizer.dependent`) that computes
exact expected costs under the dependent joint.

Networks are meant to be small (a handful of nodes, a few values each);
inference is by exact joint enumeration.  The enumeration itself is an
array program: :meth:`DiscreteBayesNet.joint_arrays` expands the joint
level by level (one vectorized multiply per node) in the exact order and
with the exact per-assignment multiply sequence the old recursive walk
used, so probabilities are bit-identical; ``joint()`` and
``expectation`` are thin views over those arrays, and
:meth:`DiscreteBayesNet.expectation_many` batches whole matrices of
per-assignment values into one cumulative-sum reduction.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Callable, Dict, List, Mapping, Optional, Sequence, Tuple

import numpy as np

from .distributions import DiscreteDistribution
from .floats import negligible_mass

__all__ = ["DiscreteBayesNet", "BayesNetError"]

Assignment = Dict[str, float]


class BayesNetError(ValueError):
    """Raised on malformed network definitions or queries."""


@dataclass(frozen=True)
class _Node:
    name: str
    values: Tuple[float, ...]
    parents: Tuple[str, ...]
    # cpt maps a tuple of parent values to the child's probability vector.
    cpt: Mapping[Tuple[float, ...], Tuple[float, ...]]


class DiscreteBayesNet:
    """A Bayesian network over named real-valued discrete variables.

    Nodes are added parents-first; each node carries a conditional
    probability table keyed by parent value combinations.

    Example — load couples memory and a selectivity::

        net = DiscreteBayesNet()
        net.add_node("load", [0.0, 1.0], probs=[0.6, 0.4])
        net.add_node(
            "M", [2000.0, 500.0], parents=["load"],
            cpt={(0.0,): [0.9, 0.1], (1.0,): [0.2, 0.8]},
        )
    """

    def __init__(self):
        self._nodes: Dict[str, _Node] = {}
        self._order: List[str] = []
        self._joint_cache: Optional[List[Tuple[Assignment, float]]] = None
        # (values (k, n_nodes), probs (k,)) — the array twin of the joint.
        self._arrays_cache: Optional[Tuple[np.ndarray, np.ndarray]] = None

    # ------------------------------------------------------------------
    # Construction
    # ------------------------------------------------------------------

    def add_node(
        self,
        name: str,
        values: Sequence[float],
        parents: Sequence[str] = (),
        probs: Optional[Sequence[float]] = None,
        cpt: Optional[Mapping[Tuple[float, ...], Sequence[float]]] = None,
    ) -> "DiscreteBayesNet":
        """Add a variable.  Root nodes take ``probs``; others take ``cpt``.

        Returns ``self`` so definitions chain.
        """
        if name in self._nodes:
            raise BayesNetError(f"node {name!r} already defined")
        vals = tuple(float(v) for v in values)
        if len(set(vals)) != len(vals) or not vals:
            raise BayesNetError(f"node {name!r} needs distinct, non-empty values")
        parents = tuple(parents)
        for p in parents:
            if p not in self._nodes:
                raise BayesNetError(
                    f"parent {p!r} of {name!r} must be added first"
                )
        if parents:
            if cpt is None:
                raise BayesNetError(f"node {name!r} has parents and needs a cpt")
            table: Dict[Tuple[float, ...], Tuple[float, ...]] = {}
            expected_keys = list(
                itertools.product(*(self._nodes[p].values for p in parents))
            )
            for key in expected_keys:
                fkey = tuple(float(k) for k in key)
                if fkey not in {tuple(float(x) for x in k) for k in cpt}:
                    raise BayesNetError(
                        f"cpt of {name!r} missing parent combination {fkey}"
                    )
            for key, row in cpt.items():
                fkey = tuple(float(k) for k in key)
                vec = self._check_probs(name, row, len(vals))
                table[fkey] = vec
            self._nodes[name] = _Node(name, vals, parents, table)
        else:
            if probs is None:
                raise BayesNetError(f"root node {name!r} needs probs")
            vec = self._check_probs(name, probs, len(vals))
            self._nodes[name] = _Node(name, vals, (), {(): vec})
        self._order.append(name)
        self._joint_cache = None
        self._arrays_cache = None
        return self

    @staticmethod
    def _check_probs(name: str, row: Sequence[float], n: int) -> Tuple[float, ...]:
        vec = tuple(float(p) for p in row)
        if len(vec) != n:
            raise BayesNetError(f"probability row of {name!r} has wrong arity")
        if any(p < 0 for p in vec) or abs(sum(vec) - 1.0) > 1e-9:
            raise BayesNetError(
                f"probability row of {name!r} must be non-negative and sum to 1"
            )
        return vec

    # ------------------------------------------------------------------
    # Inference (exact, by enumeration)
    # ------------------------------------------------------------------

    @property
    def names(self) -> List[str]:
        """Variable names in insertion (topological) order."""
        return list(self._order)

    def joint(self) -> List[Tuple[Assignment, float]]:
        """All full assignments with non-zero probability.

        A dict-of-floats view over :meth:`joint_arrays` — same rows,
        same order, same probabilities.
        """
        if self._joint_cache is None:
            values, probs = self.joint_arrays()
            self._joint_cache = [
                (
                    {name: float(v) for name, v in zip(self._order, row)},
                    float(p),
                )
                for row, p in zip(values, probs)
            ]
        return self._joint_cache

    def joint_arrays(self) -> Tuple[np.ndarray, np.ndarray]:
        """The joint as arrays: ``(values (k, n_nodes), probs (k,))``.

        Column ``j`` of ``values`` holds variable ``self.names[j]``; row
        order is the depth-first order the recursive enumeration used
        (node values in declaration order at every level).  The
        expansion is iterative and vectorized — one cpt-row gather and
        one elementwise multiply per node — but performs the *same*
        left-to-right multiply sequence per assignment as the scalar
        walk, so every probability is bit-identical.  Pruning mirrors
        the walk too: zero cpt entries are dropped at the level that
        introduces them and partials whose running mass is negligible
        (``negligible_mass``) are dropped on entry to the next level,
        including the final full-assignment check.

        A conditioned clone (whose joint was frozen by
        :meth:`condition`) derives its arrays from the frozen joint
        rather than re-expanding.
        """
        if self._arrays_cache is None:
            if self._joint_cache is not None:
                self._arrays_cache = self._arrays_from_joint()
            else:
                self._arrays_cache = self._expand_arrays()
        return self._arrays_cache

    def _arrays_from_joint(self) -> Tuple[np.ndarray, np.ndarray]:
        rows = self._joint_cache
        if not rows:
            return np.empty((0, len(self._order))), np.empty(0)
        values = np.array(
            [[a[name] for name in self._order] for a, _ in rows], dtype=float
        )
        probs = np.array([p for _, p in rows], dtype=float)
        return values, probs

    def _expand_arrays(self) -> Tuple[np.ndarray, np.ndarray]:
        if not self._order:
            return np.empty((1, 0)), np.ones(1)
        pos = {name: j for j, name in enumerate(self._order)}
        probs = np.ones(1)
        idx_cols: List[np.ndarray] = []  # per-node state-index columns
        for name in self._order:
            # Entry prune: the recursive walk rejects a partial whose
            # running mass is negligible before expanding it further.
            keep = ~negligible_mass(probs)
            if not keep.all():
                probs = probs[keep]
                idx_cols = [col[keep] for col in idx_cols]
            node = self._nodes[name]
            n_vals = len(node.values)
            if node.parents:
                sizes = [len(self._nodes[p].values) for p in node.parents]
                combos = itertools.product(
                    *(self._nodes[p].values for p in node.parents)
                )
                cpt_mat = np.array([node.cpt[c] for c in combos])
                strides = [1] * len(sizes)
                for i in range(len(sizes) - 2, -1, -1):
                    strides[i] = strides[i + 1] * sizes[i + 1]
                combo_idx = np.zeros(probs.size, dtype=int)
                for parent, stride in zip(node.parents, strides):
                    combo_idx += idx_cols[pos[parent]] * stride
                rows = cpt_mat[combo_idx]
            else:
                rows = np.tile(np.asarray(node.cpt[()]), (probs.size, 1))
            # C-order ravel == depth-first child order of the old walk.
            new_probs = (probs[:, None] * rows).ravel()
            idx_cols = [np.repeat(col, n_vals) for col in idx_cols]
            idx_cols.append(np.tile(np.arange(n_vals), probs.size))
            # Zero-skip: the walk never recursed into a zero cpt entry.
            keep = rows.ravel() != 0.0
            probs = new_probs[keep]
            idx_cols = [col[keep] for col in idx_cols]
        # Final entry check (depth == n_nodes in the recursive walk).
        keep = ~negligible_mass(probs)
        probs = probs[keep]
        values = np.column_stack(
            [
                np.asarray(self._nodes[name].values)[col[keep]]
                for name, col in zip(self._order, idx_cols)
            ]
        )
        return values, probs

    def marginal(self, name: str) -> DiscreteDistribution:
        """Marginal distribution of one variable."""
        if name not in self._nodes:
            raise BayesNetError(f"no node {name!r}")
        acc: Dict[float, float] = {}
        for assignment, prob in self.joint():
            v = assignment[name]
            acc[v] = acc.get(v, 0.0) + prob
        return DiscreteDistribution(list(acc), list(acc.values()))

    def condition(self, given: Assignment) -> "DiscreteBayesNet":
        """A new net representing the joint conditioned on the evidence.

        Implemented by re-expressing the conditioned joint as a single
        flat factor (one synthetic root per variable would lose
        dependence); for the coster's purposes only the joint matters,
        so the conditioned net exposes the same API via a frozen joint.
        """
        kept = []
        total = 0.0
        for assignment, prob in self.joint():
            if any(assignment.get(k) != float(v) for k, v in given.items()):
                continue
            kept.append((dict(assignment), prob))
            total += prob
        if total <= 0.0:
            raise BayesNetError(f"evidence {given!r} has zero probability")
        clone = DiscreteBayesNet()
        clone._nodes = dict(self._nodes)
        clone._order = list(self._order)
        clone._joint_cache = [(a, p / total) for a, p in kept]
        return clone

    def expectation(self, fn: Callable[[Assignment], float]) -> float:
        """``E[fn(X)]`` over the (possibly conditioned) joint."""
        return sum(prob * fn(assignment) for assignment, prob in self.joint())

    def expectation_many(self, values: np.ndarray) -> np.ndarray:
        """Batched expectations over per-assignment value rows.

        ``values`` has shape ``(m, k)`` (or ``(k,)`` for a single
        expectation) with column ``j`` aligned to row ``j`` of
        :meth:`joint_arrays`.  The reduction is a cumulative sum along
        the assignment axis — the same left-to-right accumulation as
        :meth:`expectation`'s generator ``sum`` — so each result is
        bit-identical to the scalar loop over the same per-assignment
        values.
        """
        _, probs = self.joint_arrays()
        arr = np.asarray(values, dtype=float)
        squeeze = arr.ndim == 1
        if squeeze:
            arr = arr[None, :]
        if arr.shape[1] != probs.size:
            raise BayesNetError(
                f"expected {probs.size} per-assignment values, "
                f"got {arr.shape[1]}"
            )
        if probs.size == 0:
            out = np.zeros(arr.shape[0])
        else:
            out = np.cumsum(arr * probs[None, :], axis=1)[:, -1]
        return out[0] if squeeze else out

    def sample(self, rng: np.random.Generator) -> Assignment:
        """Draw one full assignment from the joint."""
        assignments, probs = zip(*self.joint())
        idx = rng.choice(len(assignments), p=np.array(probs) / sum(probs))
        return dict(assignments[int(idx)])

    def mutual_dependence(self, a: str, b: str) -> float:
        """Total-variation gap between the joint of (a, b) and the product
        of marginals — 0 iff the two variables are independent.
        """
        joint_ab: Dict[Tuple[float, float], float] = {}
        for assignment, prob in self.joint():
            key = (assignment[a], assignment[b])
            joint_ab[key] = joint_ab.get(key, 0.0) + prob
        ma, mb = self.marginal(a), self.marginal(b)
        gap = 0.0
        for (va, vb), p in joint_ab.items():
            gap += abs(p - ma.prob_of(va) * mb.prob_of(vb))
        return gap
