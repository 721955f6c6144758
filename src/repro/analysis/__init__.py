"""``repro.analysis`` — project-specific static analysis ("optlint").

An AST-based lint engine enforcing the LEC invariants the type system
cannot see: lock discipline on shared serving state, catalog-version
fences on statistics mutations, cost/probability float hygiene,
determinism, and distribution encapsulation.

Run it as the CI gate does::

    python -m repro.analysis src

or programmatically::

    from repro.analysis import AnalysisEngine
    findings = AnalysisEngine().check_paths(["src"])

See :mod:`repro.analysis.rules` for the rule catalog and
:mod:`repro.analysis.engine` for suppression mechanics.
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
    suppressed_rules_for_line,
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
    "suppressed_rules_for_line",
]
