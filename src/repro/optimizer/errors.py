"""Optimizer-facing error types.

Configuration mistakes (an unknown plan space, a nonsensical ``top_k``,
an objective the facade does not know) are distinct from malformed
queries, but callers want to catch both uniformly — a service wrapping
:func:`repro.optimize` should be able to turn "the request was invalid"
into one error path.  :class:`OptimizerConfigError` therefore derives
from :class:`~repro.plans.query.QueryError` (itself a ``ValueError``),
so existing ``except ValueError`` / ``except QueryError`` call sites
keep working while new code can catch the precise class.
"""

from __future__ import annotations

from ..plans.query import QueryError

__all__ = ["OptimizerConfigError", "MemoryTypeError"]


class OptimizerConfigError(QueryError):
    """Raised when an optimizer is constructed with invalid settings."""


class MemoryTypeError(OptimizerConfigError, TypeError):
    """``memory`` is not of a type the chosen objective accepts."""
