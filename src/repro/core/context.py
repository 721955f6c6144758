"""Alias of :mod:`repro.costmodel.context` for the names ``bench/`` traces.

ROADMAP item 1 deletes this module when ``bench/trace.py`` names the new path.
"""
from ..costmodel.context import OptimizationContext, query_fingerprint  # noqa: F401
