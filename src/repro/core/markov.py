"""Markov-chain models for parameters that change *during* execution.

Section 3.5 of the paper drops the assumption that available memory stays
constant while a plan runs: execution proceeds in *phases* (one per join),
memory is constant within a phase but may change between phases, and the
change is governed by a time-homogeneous transition probability that
depends only on the current value ("reasonable for 24x7 systems in stable
operational mode").

:class:`MarkovParameter` packages an initial distribution plus a
transition matrix over a fixed state set, and exposes the two views the
algorithms need:

* ``marginal(k)`` — the distribution of the parameter in phase ``k``.
  Because expectation distributes over addition, Algorithm C only ever
  needs these per-phase marginals to compute the exact expected cost of a
  left-deep plan (Theorem 3.4), even though phases are *not* independent.
* ``sequences(length)`` — explicit enumeration of all ``b^length`` value
  sequences with their probabilities, used by the tests and experiments to
  verify the marginal-based computation against brute force.

Both views are array programs: ``marginal`` costs one matrix multiply
per *new* phase (the vectors are cached across calls), and
``sequence_table`` materializes the brute-force
enumeration as two arrays built from a row-major index grid — the same
left-to-right per-step multiplies as the scalar walk, so probabilities
match the historical generator bit for bit (multiplying an exact ``0.0``
by any finite factor stays ``0.0``, which subsumes the old early-break).
``sequences`` itself is a thin generator over that table.
"""

from __future__ import annotations

from typing import Dict, Iterator, List, Optional, Sequence, Tuple

import numpy as np

from .distributions import DiscreteDistribution

__all__ = ["MarkovParameter", "random_walk_chain", "sticky_chain"]


class MarkovParameter:
    """A parameter evolving between plan phases under a Markov chain.

    Parameters
    ----------
    states:
        Parameter values (e.g. memory sizes in pages), strictly increasing.
    initial:
        Probability of each state at phase 0 (when the first join starts).
    transition:
        Row-stochastic matrix: ``transition[i, j]`` is the probability of
        moving from ``states[i]`` to ``states[j]`` between consecutive
        phases.
    """

    def __init__(
        self,
        states: Sequence[float],
        initial: Sequence[float],
        transition: Sequence[Sequence[float]],
    ):
        # Copies, frozen below: a caller writing to its own arrays later
        # cannot leave some cached phases on the old chain and some on the new.
        self.states = np.array(states, dtype=float)
        if self.states.ndim != 1 or self.states.size == 0:
            raise ValueError("states must be a non-empty 1-d sequence")
        if np.any(np.diff(self.states) <= 0):
            raise ValueError("states must be strictly increasing")
        self.initial = np.array(initial, dtype=float)
        self.transition = np.array(transition, dtype=float)
        n = self.states.size
        if self.initial.shape != (n,):
            raise ValueError(f"initial must have shape ({n},)")
        if self.transition.shape != (n, n):
            raise ValueError(f"transition must have shape ({n}, {n})")
        if np.any(self.initial < 0) or not np.isclose(self.initial.sum(), 1.0):
            raise ValueError("initial must be a probability vector")
        if np.any(self.transition < 0) or not np.allclose(
            self.transition.sum(axis=1), 1.0
        ):
            raise ValueError("transition rows must be probability vectors")
        for owned in (self.states, self.initial, self.transition):
            owned.setflags(write=False)
        self._marginal_cache: List[np.ndarray] = [self.initial]
        self._marginals: Dict[int, DiscreteDistribution] = {}

    @property
    def n_states(self) -> int:
        """Number of parameter values the chain moves between."""
        return int(self.states.size)

    # ------------------------------------------------------------------

    def _marginal_vector(self, phase: int) -> np.ndarray:
        if phase < 0:
            raise ValueError("phase must be >= 0")
        while len(self._marginal_cache) <= phase:
            self._marginal_cache.append(self._marginal_cache[-1] @ self.transition)
        return self._marginal_cache[phase]

    def marginal(self, phase: int) -> DiscreteDistribution:
        """Distribution of the parameter value during phase ``phase``.

        Phase 0 is the first join executed (the bottom of a left-deep
        plan); each subsequent join is one phase later.  Built once per
        phase: every later call returns the same (immutable) object.
        """
        dist = self._marginals.get(phase)
        if dist is None:
            dist = self._marginals[phase] = DiscreteDistribution(
                self.states, self._marginal_vector(phase)
            )
        return dist

    # ------------------------------------------------------------------

    def sequence_table(self, length: int) -> Tuple[np.ndarray, np.ndarray]:
        """All positive-probability value sequences as ``(values, probs)``.

        ``values`` has shape ``(k, length)`` (one row per sequence, in
        the same row-major order ``itertools.product`` would visit) and
        ``probs`` shape ``(k,)``.  Probabilities are built with the same
        left-to-right per-step multiplies as the scalar walk — step
        ``j`` multiplies in ``transition[s_{j-1}, s_j]`` across all rows
        at once — so each surviving row's probability is bit-identical
        to the historical generator's.  Zero-probability sequences are
        dropped (as the generator skipped them); an exact ``0.0`` can
        only stay ``0.0`` under further finite multiplies, so the old
        early-break changes nothing.
        """
        if length < 0:
            raise ValueError("length must be >= 0")
        if length == 0:
            return np.empty((1, 0)), np.ones(1)
        n = self.n_states
        # Row-major index grid == itertools.product(range(n), repeat=length).
        grid = (
            np.indices((n,) * length).reshape(length, n**length).T
        )
        probs = self.initial[grid[:, 0]].copy()
        for j in range(1, length):
            probs *= self.transition[grid[:, j - 1], grid[:, j]]
        # Exact zero on purpose: only a true 0.0 product may be dropped,
        # mirroring the scalar walk's branch prune — a tolerance here
        # would delete real (tiny) sequences.
        keep = probs != 0.0
        return self.states[grid[keep]], probs[keep]

    def sequences(self, length: int) -> Iterator[Tuple[Tuple[float, ...], float]]:
        """Enumerate all value sequences of ``length`` phases with probability.

        This is the ``b_M^{n-1}`` explosion the paper warns about; it is
        exposed for verification (Theorem 3.4 tests) and for small exact
        experiments only.  A thin generator over :meth:`sequence_table`
        — same order, same tuples, same probabilities.
        """
        values, probs = self.sequence_table(length)
        for row, p in zip(values, probs):
            yield tuple(float(v) for v in row), float(p)

    def sample_path(self, length: int, rng: np.random.Generator) -> List[float]:
        """Sample one trajectory of parameter values across ``length`` phases."""
        if length <= 0:
            return []
        idx = int(rng.choice(self.n_states, p=self.initial))
        path = [float(self.states[idx])]
        for _ in range(length - 1):
            idx = int(rng.choice(self.n_states, p=self.transition[idx]))
            path.append(float(self.states[idx]))
        return path

    # ------------------------------------------------------------------

    @classmethod
    def static(cls, dist: DiscreteDistribution) -> "MarkovParameter":
        """A chain that never moves — the static-parameter special case."""
        n = dist.n_buckets
        return cls(dist.support(), dist.probs, np.eye(n))

    def __repr__(self) -> str:
        return (
            f"MarkovParameter(states={[float(s) for s in self.states]}, "
            f"n={self.n_states})"
        )


def random_walk_chain(
    states: Sequence[float],
    initial: Optional[Sequence[float]] = None,
    move_prob: float = 0.2,
) -> MarkovParameter:
    """A lazy random walk over the state ladder.

    With probability ``move_prob`` the parameter steps to an adjacent
    state (split evenly up/down, reflecting at the ends); otherwise it
    stays put.  ``move_prob`` is the volatility knob experiment E5 sweeps.
    """
    states = list(states)
    n = len(states)
    if n == 0:
        raise ValueError("states must be non-empty")
    if not 0.0 <= move_prob <= 1.0:
        raise ValueError("move_prob must be in [0, 1]")
    trans = np.zeros((n, n))
    for i in range(n):
        if n == 1:
            trans[i, i] = 1.0
            continue
        up = i + 1 if i + 1 < n else i - 1
        down = i - 1 if i - 1 >= 0 else i + 1
        trans[i, i] += 1.0 - move_prob
        trans[i, up] += move_prob / 2.0
        trans[i, down] += move_prob / 2.0
    if initial is None:
        initial = np.full(n, 1.0 / n)
    return MarkovParameter(states, initial, trans)


def sticky_chain(
    dist: DiscreteDistribution, stickiness: float
) -> MarkovParameter:
    """A chain whose every row mixes "stay" with "redraw from ``dist``".

    With probability ``stickiness`` the value persists; otherwise a fresh
    value is drawn from ``dist``.  The marginal at every phase equals
    ``dist`` (it is stationary), which isolates the effect of *temporal
    correlation* from the effect of marginal variance.
    """
    if not 0.0 <= stickiness <= 1.0:
        raise ValueError("stickiness must be in [0, 1]")
    n = dist.n_buckets
    redraw = np.tile(dist.probs, (n, 1))
    trans = stickiness * np.eye(n) + (1.0 - stickiness) * redraw
    return MarkovParameter(dist.support(), dist.probs, trans)
