"""Built-in optlint rules; importing this package registers them all.

================  =====================================================
rule              invariant
================  =====================================================
``LOCK001``       lock-owning classes/modules write shared state only
                  under ``with <lock>:`` (serving cache, metrics,
                  facade context LRU)
``VER001``        every statistics mutation bumps the catalog/feedback
                  ``version`` fence the plan cache keys on
``ASYNC001``      no blocking primitive (sleep, socket/file I/O,
                  ``Future.result()``, frame I/O) is transitively
                  reachable from an ``async def`` in
                  ``repro.cluster``/``repro.serving`` [project-scoped]
``LOCK002``       no lock-order cycles across the whole program
                  [project-scoped]
``SER001``        every wire ``kind`` an encoder emits has a decoder
                  branch, and vice versa [project-scoped]
================  =====================================================

Adding a rule: create a module here with a :class:`~repro.analysis.
engine.Rule` subclass (or :class:`~repro.analysis.engine.ProjectRule`
for whole-program invariants) decorated with ``@register``, import it
below, and add a triggering + clean fixture pair in
``tests/analysis/test_rules.py`` (project rules:
``tests/analysis/test_rules_project.py``).  A toy fixture is not
enough: the rule also needs a case in
``tests/analysis/test_mutations.py`` that seeds a defect of its class
into the real ``src/repro`` tree and sees the rule fire there — a rule
with no case fails that suite.  A finding is fixed in code: there is no
inline suppression.
"""

from __future__ import annotations

from .async001 import AsyncBlockingRule
from .lock001 import LockDisciplineRule
from .lock002 import LockOrderRule
from .ser001 import SerializeKindRule
from .ver001 import VersionFenceRule

__all__ = [
    "AsyncBlockingRule",
    "LockDisciplineRule",
    "LockOrderRule",
    "SerializeKindRule",
    "VersionFenceRule",
]
