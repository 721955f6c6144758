"""Admission control: spend optimization effort only where it can pay.

PAOQ frames optimization itself as a budgeted cost; under load that
budget is set by the queue, not the client.  The controller looks at one
shard's queue depth and an EWMA of recent service times and places each
arriving request into one of three outcomes *before* any work starts:

``admit``
    The shard's queue is shorter than :data:`SOFT_LIMIT`: the request
    runs with whatever deadline the client asked for (the full rung when
    the budget allows — no quality is given up without pressure).
``degrade``
    The shard is between its soft and hard limits: the request is
    accepted, but its effective deadline is squeezed to the time the
    queue can actually afford.  The worker's full → LSC ladder then
    sheds the load *qualitatively* — cheaper plans, not dropped
    requests.
``shed``
    The shard's queue has reached :data:`HARD_LIMIT`: the request is
    refused up front with an explicit signal.  Refusal-at-the-door is the only
    drop the cluster ever performs; once accepted, a request is always
    answered (degraded or retried, never lost).

The controller is pure bookkeeping — no threads, no I/O — so its policy
is unit-testable without a cluster.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass
from typing import Dict, Optional

__all__ = [
    "ADMIT",
    "DEGRADE",
    "SHED",
    "AdmissionDecision",
    "AdmissionController",
]

ADMIT = "admit"
DEGRADE = "degrade"
SHED = "shed"

#: Per-shard queue depth from which requests are admitted with a
#: squeezed deadline (quality shed onto the ladder).
SOFT_LIMIT = 8
#: Per-shard queue depth at which requests are refused outright.
HARD_LIMIT = 64
#: Floor (seconds) of a squeezed deadline: below it the worker could not
#: even run the LSC rung comfortably, so squeezing stops here.
MIN_DEADLINE = 0.01
#: EWMA weight of one observed per-request service time.
EWMA_ALPHA = 0.2


@dataclass(frozen=True)
class AdmissionDecision:
    """One request's fate: the action plus the deadline it runs under."""

    action: str  # ADMIT / DEGRADE / SHED
    effective_deadline: Optional[float]  # seconds; None = unbounded
    queue_depth: int
    reason: str

    @property
    def accepted(self) -> bool:
        """True unless the request was shed at the door."""
        return self.action != SHED


class AdmissionController:
    """Queue-depth and deadline-aware admission for one gateway.

    Its policy reads :data:`SOFT_LIMIT`, :data:`HARD_LIMIT`,
    :data:`MIN_DEADLINE` and :data:`EWMA_ALPHA` at each call.
    """

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._service_ewma: Optional[float] = None
        self._decisions: Dict[str, int] = {ADMIT: 0, DEGRADE: 0, SHED: 0}

    # ------------------------------------------------------------------
    # Observations
    # ------------------------------------------------------------------

    def observe_service_time(self, seconds: float) -> None:
        """Fold one completed request's service time into the EWMA."""
        seconds = float(seconds)
        with self._lock:
            if self._service_ewma is None:
                self._service_ewma = seconds
            else:
                self._service_ewma = (
                    (1 - EWMA_ALPHA) * self._service_ewma + EWMA_ALPHA * seconds
                )

    @property
    def predicted_service_time(self) -> Optional[float]:
        """Current EWMA of per-request service time (None before data)."""
        with self._lock:
            return self._service_ewma

    # ------------------------------------------------------------------
    # Policy
    # ------------------------------------------------------------------

    def decide(self, queue_depth: int,
               deadline: Optional[float]) -> AdmissionDecision:
        """Place one arriving request given its target shard's depth."""
        depth = int(queue_depth)
        if depth >= HARD_LIMIT:
            return self._record(AdmissionDecision(
                SHED, None, depth,
                f"queue depth {depth} >= hard limit {HARD_LIMIT}",
            ))
        if depth < SOFT_LIMIT:
            return self._record(AdmissionDecision(
                ADMIT, deadline, depth, "below soft limit",
            ))
        # Soft pressure: squeeze the budget so the ladder sheds quality.
        # The request's fair share of worker time shrinks linearly as the
        # queue approaches the hard limit.
        pressure = (depth - SOFT_LIMIT + 1) / (HARD_LIMIT - SOFT_LIMIT)
        predicted = self.predicted_service_time
        base = deadline
        if base is None:
            # No client budget: derive one from observed service times so
            # an unbounded request cannot monopolize a loaded shard.
            base = (predicted if predicted is not None else MIN_DEADLINE) * 4
        squeezed = max(MIN_DEADLINE, base * (1.0 - pressure))
        effective = squeezed if deadline is None else min(deadline, squeezed)
        return self._record(AdmissionDecision(
            DEGRADE, effective, depth,
            f"queue depth {depth} >= soft limit {SOFT_LIMIT} "
            f"(pressure {pressure:.2f})",
        ))

    def _record(self, decision: AdmissionDecision) -> AdmissionDecision:
        with self._lock:
            self._decisions[decision.action] += 1
        return decision

    # ------------------------------------------------------------------
    # Observability
    # ------------------------------------------------------------------

    def stats(self) -> Dict[str, float]:
        """Decision counts plus the current service-time estimate."""
        with self._lock:
            out: Dict[str, float] = dict(self._decisions)
            out["service_time_ewma"] = (
                self._service_ewma if self._service_ewma is not None else 0.0
            )
        return out
