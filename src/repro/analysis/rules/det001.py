"""DET001 — experiments must thread a seed; no module-level RNG state.

Every result table in this repository is replayable because every
stochastic component takes an explicit ``numpy.random.Generator``
(CONTRIBUTING rule 3).  Calls into *module-level* RNG state break that:
``np.random.uniform(...)`` and friends share one hidden global stream,
``random.random()`` likewise, and an argument-less
``np.random.default_rng()`` / ``random.Random()`` draws entropy from the
OS — three different ways for an experiment to become unreproducible.

Flagged (outside test files, which may legitimately want fresh entropy):

* any call through the legacy ``np.random.*`` module API
  (``seed``/``rand``/``choice``/``shuffle``/...);
* ``np.random.default_rng()`` / ``np.random.RandomState()`` /
  ``random.Random()`` *without* a seed argument;
* ``random.<fn>()`` module-level functions of the stdlib ``random``.

Seeded construction (``np.random.default_rng(seed)``) and drawing from
an explicit generator (``rng.choice(...)``) pass — *unless* the seed is
itself entropy in disguise (``time.time_ns()``, ``os.getpid()``,
``os.urandom()``...), which is flagged like an unseeded constructor.

Not DET001's job: ``set``/``frozenset`` iteration order (which follows
``PYTHONHASHSEED``) reaching an RNG draw or a float sum.  A seeded
search that picks from ``list(remaining)`` instead of
``sorted(remaining)`` passes this rule, and is caught by
``tests/costmodel/test_hashseed_determinism.py``, which replays seeded
searches in fresh interpreters under several hash seeds, and by CI's
step that runs the suites under a drawn ``PYTHONHASHSEED``.
"""

from __future__ import annotations

import ast
from typing import Iterator, Optional

from ..engine import Finding, ModuleInfo, Rule, register
from ._util import dotted_name

__all__ = ["DeterminismRule"]

#: np.random constructors that are fine *when given a seed argument*.
_SEEDED_FACTORIES = {"default_rng", "RandomState", "SeedSequence",
                     "PCG64", "Philox", "MT19937", "SFC64"}

#: np.random attributes that are types/submodules, not RNG draws.
_NP_RANDOM_SAFE = {"Generator", "BitGenerator"} | _SEEDED_FACTORIES

#: stdlib ``random`` module-level functions sharing hidden global state.
_STDLIB_RANDOM_FNS = {
    "random", "randint", "randrange", "choice", "choices", "shuffle",
    "sample", "uniform", "gauss", "normalvariate", "lognormvariate",
    "expovariate", "betavariate", "paretovariate", "vonmisesvariate",
    "weibullvariate", "triangular", "seed", "getrandbits", "binomialvariate",
}


#: calls whose value is wall-clock/process entropy — a seed built from
#: one of these is as unreproducible as no seed at all.
_ENTROPY_SOURCES = {
    "time.time", "time.time_ns", "time.monotonic", "time.monotonic_ns",
    "time.perf_counter", "time.perf_counter_ns",
    "os.getpid", "os.urandom", "uuid.uuid4",
}


def _np_random_leaf(name: str) -> Optional[str]:
    """The function name when ``name`` is a ``*.random.<fn>`` chain."""
    parts = name.split(".")
    if len(parts) >= 3 and parts[0] in ("np", "numpy") and parts[1] == "random":
        return parts[2]
    return None


def _entropy_seed_source(call: ast.Call) -> Optional[str]:
    """The entropy source a seed argument derives from, if any.

    Catches both direct (``default_rng(time.time_ns())``) and derived
    (``default_rng(os.getpid() % 2**32)``) seeds by walking the whole
    argument expression.
    """
    seed_exprs = list(call.args)
    seed_exprs.extend(kw.value for kw in call.keywords if kw.arg == "seed")
    for expr in seed_exprs:
        for sub in ast.walk(expr):
            if isinstance(sub, ast.Call):
                name = dotted_name(sub.func)
                if name is not None and name in _ENTROPY_SOURCES:
                    return name
    return None


@register
class DeterminismRule(Rule):
    name = "DET001"
    description = (
        "no module-level/unseeded RNG outside tests; thread an explicit "
        "seeded numpy Generator"
    )

    def check(self, module: ModuleInfo) -> Iterator[Finding]:
        if module.is_test:
            return
        for node in ast.walk(module.tree):
            if not isinstance(node, ast.Call):
                continue
            name = dotted_name(node.func)
            if name is None:
                continue
            unseeded = not node.args and not node.keywords

            leaf = _np_random_leaf(name)
            if leaf is not None:
                if leaf in _SEEDED_FACTORIES:
                    if unseeded:
                        yield self.finding(
                            module, node,
                            f"{name}() without a seed is unreproducible; "
                            "pass an explicit seed",
                        )
                    else:
                        source = _entropy_seed_source(node)
                        if source is not None:
                            yield self.finding(
                                module, node,
                                f"{name}() seeded from {source}() is "
                                "entropy in disguise; pass an explicit seed",
                            )
                elif leaf not in _NP_RANDOM_SAFE:
                    yield self.finding(
                        module, node,
                        f"{name}() uses numpy's hidden global RNG; draw "
                        "from an explicit np.random.Generator instead",
                    )
                continue

            parts = name.split(".")
            if len(parts) == 2 and parts[0] == "random":
                if parts[1] == "Random":
                    if unseeded:
                        yield self.finding(
                            module, node,
                            "random.Random() without a seed is "
                            "unreproducible; pass an explicit seed",
                        )
                    else:
                        source = _entropy_seed_source(node)
                        if source is not None:
                            yield self.finding(
                                module, node,
                                f"random.Random() seeded from {source}() "
                                "is entropy in disguise; pass an explicit seed",
                            )
                elif parts[1] in _STDLIB_RANDOM_FNS:
                    yield self.finding(
                        module, node,
                        f"{name}() uses the stdlib's hidden global RNG; "
                        "use a seeded np.random.Generator instead",
                    )

