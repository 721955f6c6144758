"""Alias of :mod:`repro.costmodel.expected_cost` for the names ``bench/`` traces.

ROADMAP item 1 deletes this module when ``bench/trace.py`` names the new path.
"""
from ..costmodel.expected_cost import (  # noqa: F401
    expected_external_sort_cost,
    expected_external_sort_cost_model,
    expected_join_cost_fast,
    expected_join_cost_naive,
    expected_join_cost_naive_model,
    expected_join_costs_batched,
    expected_join_costs_batched_parallel,
)
