"""``repro.analysis`` — project-specific static analysis ("optlint").

An AST-based lint engine enforcing the LEC invariants the type system
cannot see: lock discipline and lock order on shared serving state,
catalog-version fences on statistics mutations, a non-blocking cluster
event loop, and a wire codec whose encoder and decoder agree on kinds.

Run it as the CI gate does::

    python -m repro.analysis src --stats

or programmatically::

    from repro.analysis import AnalysisEngine
    findings = AnalysisEngine().check_paths(["src"])

See :mod:`repro.analysis.rules` for the rule catalog and
:mod:`repro.analysis.project` for the whole-program view.
"""

from __future__ import annotations

from .engine import (
    AnalysisEngine,
    Finding,
    ModuleInfo,
    ProjectRule,
    Rule,
    iter_python_files,
    register,
    registered_rules,
)

__all__ = [
    "AnalysisEngine",
    "Finding",
    "ModuleInfo",
    "ProjectRule",
    "Rule",
    "iter_python_files",
    "register",
    "registered_rules",
]
