"""FLT001 — no exact ``==``/``!=`` between cost/probability expressions.

The paper's cost formulas are *discontinuous* in memory (Section 1):
plan costs land on breakpoint boundaries, expected costs are weighted
sums of floats, and probability masses are renormalized on every
construction.  Exact float equality on such quantities is therefore a
latent bug — two mathematically equal costs routinely differ in the
last ulp, and an ``==`` tie-break silently changes the chosen plan.

The rule flags ``==``/``!=`` comparisons where either side *names* a
cost/probability-like quantity (``cost``, ``prob``, ``selectivity``,
``objective``, ``mean()``, ``expectation()``, ...).  Fixes, in
preference order: an ordered comparison (``<=`` against a bound), the
tolerance helpers in :mod:`repro.core.floats`
(``costs_close``/``probs_close``), or — for the rare *intentional*
exact check, e.g. an exact-zero guard before division — an inline
``# optlint: disable=FLT001`` with a justifying comment.

Test files are exempt: an exact-equality assert is how the parity and
oracle suites state "bitwise", and a test cannot change a chosen plan.
"""

from __future__ import annotations

import ast
import re
from typing import Iterator

from ..engine import Finding, ModuleInfo, Rule, register
from ._util import name_hint

__all__ = ["FloatEqualityRule"]

#: identifier fragments marking a value as cost/probability-like.
_FLOATY = re.compile(
    r"(cost|prob|selectiv|objective|expect|mass|latenc|quantile|percentile"
    r"|variance|stddev|cdf\b|pmf\b|^mean$|_mean$|^mean_|survival)",
    re.IGNORECASE,
)

#: comparand types that make the comparison clearly non-float.
_NON_FLOAT_CONSTS = (str, bytes, bool, type(None))


def _is_non_float_literal(node: ast.AST) -> bool:
    if isinstance(node, ast.Constant):
        return isinstance(node.value, _NON_FLOAT_CONSTS)
    if isinstance(node, (ast.List, ast.Tuple, ast.Set, ast.Dict)):
        return True
    return False


@register
class FloatEqualityRule(Rule):
    name = "FLT001"
    description = (
        "exact ==/!= between cost/probability expressions; use ordered "
        "comparisons or repro.core.floats helpers"
    )

    def check(self, module: ModuleInfo) -> Iterator[Finding]:
        if module.is_test:
            return
        for node in ast.walk(module.tree):
            if not isinstance(node, ast.Compare):
                continue
            operands = [node.left, *node.comparators]
            for i, op in enumerate(node.ops):
                if not isinstance(op, (ast.Eq, ast.NotEq)):
                    continue
                left, right = operands[i], operands[i + 1]
                if _is_non_float_literal(left) or _is_non_float_literal(right):
                    continue
                hint = next(
                    (h for h in (name_hint(left), name_hint(right))
                     if _FLOATY.search(h)),
                    None,
                )
                if hint is None:
                    continue
                symbol = "==" if isinstance(op, ast.Eq) else "!="
                yield self.finding(
                    module, node,
                    f"exact float {symbol} on {hint!r}: costs/probabilities "
                    f"need tolerance (repro.core.floats.costs_close/"
                    f"probs_close) or an ordered comparison",
                )
