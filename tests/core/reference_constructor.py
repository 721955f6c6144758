"""The ``DiscreteDistribution`` constructor as it stood before it learnt
to skip work its own tests show to be unnecessary.

``ReferenceDistribution.__init__`` is that constructor's body, verbatim:
every check, the unconditional clip, the unconditional stable sort, the
duplicate merge, the zero-mass drop.  Unlike ``reference_kernel.py``
(plain loops, compared within tolerance) this reference is compared
*bitwise* by ``test_constructor_parity.py``: the shipped constructor may
do less work, never different arithmetic.  If the canonical form itself
changes (new merge rule, new tolerance), change this file in the same
commit.
"""

from __future__ import annotations

import math
from typing import Iterable

import numpy as np

from repro.core.distributions import DistributionError

_PROB_TOL = 1e-9


def _as_float_array(data) -> np.ndarray:
    if isinstance(data, (np.ndarray, list, tuple)):
        return np.asarray(data, dtype=float)
    return np.asarray(list(data), dtype=float)


class ReferenceDistribution:
    """The four arrays the old constructor stored, and nothing else."""

    def __init__(self, values: Iterable[float], probs: Iterable[float]):
        vals = _as_float_array(values)
        prbs = _as_float_array(probs)
        if vals.shape != prbs.shape or vals.ndim != 1:
            raise DistributionError(
                f"values and probs must be 1-d and the same length, got shapes "
                f"{vals.shape} and {prbs.shape}"
            )
        if vals.size == 0:
            raise DistributionError("a distribution needs at least one support point")
        if np.any(~np.isfinite(vals)):
            raise DistributionError("support points must be finite")
        if np.any(prbs < -_PROB_TOL):
            raise DistributionError("probabilities must be non-negative")
        prbs = np.clip(prbs, 0.0, None)
        total = float(prbs.sum())
        if not math.isclose(total, 1.0, rel_tol=0.0, abs_tol=1e-6):
            raise DistributionError(f"probabilities must sum to 1, got {total!r}")
        prbs = prbs / total

        order = np.argsort(vals, kind="stable")
        vals = vals[order]
        prbs = prbs[order]

        # Merge duplicate support points so equality is canonical.
        keep_mask = np.empty(vals.size, dtype=bool)
        keep_mask[0] = True
        keep_mask[1:] = vals[1:] != vals[:-1]
        if not keep_mask.all():
            group_ids = np.cumsum(keep_mask) - 1
            merged = np.zeros(int(group_ids[-1]) + 1, dtype=float)
            np.add.at(merged, group_ids, prbs)
            vals = vals[keep_mask]
            prbs = merged

        # Drop zero-probability points unless that would empty the support.
        nonzero = prbs > 0.0
        if nonzero.any() and not nonzero.all():
            vals = vals[nonzero]
            prbs = prbs[nonzero]

        self.values = vals
        self.probs = prbs
        self.cdf_array = np.cumsum(prbs)
        self.weighted_prefix_array = np.cumsum(vals * prbs)
