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

Multiprocessing sharpens the stakes: a function handed to
``multiprocessing.Process(target=...)`` is a **worker entry point**, and
an unseeded generator built there gives every worker its own
irreproducible stream (under ``fork`` the workers may even *share* the
parent's hidden global state).  Findings inside such functions carry a
worker-specific message: derive the worker's generator from a seed
passed in explicitly (argument, config field, or wire message).

Worker *pools* are the same trap with a different spelling: a function
handed to ``pool.submit(fn)`` / ``pool.map(fn, ...)`` /
``pool.apply_async(fn)`` runs as a **pool task**, possibly many times concurrently, on whatever thread or
process the executor picks.  An unseeded generator built inside one
makes every chunk's stream depend on the schedule.  Findings inside
pool-task functions carry their own message: derive a per-chunk
generator from the caller's seed (e.g. ``default_rng([seed, chunk])``),
never from ambient entropy.
"""

from __future__ import annotations

import ast
from typing import Dict, Iterator, Optional

from ..engine import Finding, ModuleInfo, Rule, register
from ._util import dotted_name

__all__ = ["DeterminismRule"]

#: executor/pool methods whose first positional argument is a function
#: that will run as a pool task (concurrent.futures, multiprocessing
#: pools).
_POOL_METHODS = {
    "submit", "map", "imap", "imap_unordered", "starmap", "starmap_async",
    "apply_async", "map_async",
}

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


def _worker_entry_names(tree: ast.AST) -> Dict[str, str]:
    """Functions that run as worker entry points, by idiom.

    Maps the bare function name to ``"process"`` for ``Process(target=
    ...)`` targets (the ``multiprocessing`` module, a ``get_context()``
    handle, and aliases all end in the same attribute leaf) or
    ``"pool"`` for the first argument of an executor/pool dispatch
    method (``.submit(fn)``, ``.map(fn, ...)``, ``.apply_async(fn)``,
    ...).  A name claimed by both idioms
    keeps the Process classification — the cross-process failure mode
    is the stronger warning.
    """
    names: Dict[str, str] = {}
    for node in ast.walk(tree):
        if not isinstance(node, ast.Call):
            continue
        func = node.func
        leaf = func.attr if isinstance(func, ast.Attribute) else (
            func.id if isinstance(func, ast.Name) else None
        )
        if leaf == "Process":
            for kw in node.keywords:
                if kw.arg == "target":
                    target = dotted_name(kw.value)
                    if target is not None:
                        names[target.split(".")[-1]] = "process"
        elif (
            isinstance(func, ast.Attribute)
            and leaf in _POOL_METHODS
            and node.args
        ):
            # Only attribute calls count: the builtin map(fn, xs) is a
            # plain Name call and stays out of scope.
            target = dotted_name(node.args[0])
            if target is not None:
                names.setdefault(target.split(".")[-1], "pool")
    return names


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
        workers = _worker_entry_names(module.tree)
        for node in ast.walk(module.tree):
            if not isinstance(node, ast.Call):
                continue
            name = dotted_name(node.func)
            if name is None:
                continue
            unseeded = not node.args and not node.keywords
            suffix = self._worker_suffix(module, node, workers)

            leaf = _np_random_leaf(name)
            if leaf is not None:
                if leaf in _SEEDED_FACTORIES:
                    if unseeded:
                        yield self.finding(
                            module, node,
                            f"{name}() without a seed is unreproducible; "
                            f"pass an explicit seed{suffix}",
                        )
                    else:
                        source = _entropy_seed_source(node)
                        if source is not None:
                            yield self.finding(
                                module, node,
                                f"{name}() seeded from {source}() is "
                                f"entropy in disguise; pass an explicit "
                                f"seed{suffix}",
                            )
                elif leaf not in _NP_RANDOM_SAFE:
                    yield self.finding(
                        module, node,
                        f"{name}() uses numpy's hidden global RNG; draw "
                        f"from an explicit np.random.Generator "
                        f"instead{suffix}",
                    )
                continue

            parts = name.split(".")
            if len(parts) == 2 and parts[0] == "random":
                if parts[1] == "Random":
                    if unseeded:
                        yield self.finding(
                            module, node,
                            f"random.Random() without a seed is "
                            f"unreproducible; pass an explicit seed{suffix}",
                        )
                    else:
                        source = _entropy_seed_source(node)
                        if source is not None:
                            yield self.finding(
                                module, node,
                                f"random.Random() seeded from {source}() "
                                f"is entropy in disguise; pass an explicit "
                                f"seed{suffix}",
                            )
                elif parts[1] in _STDLIB_RANDOM_FNS:
                    yield self.finding(
                        module, node,
                        f"{name}() uses the stdlib's hidden global RNG; "
                        f"use a seeded np.random.Generator instead{suffix}",
                    )

    def _worker_suffix(self, module: ModuleInfo, node: ast.AST,
                       workers: Dict[str, str]) -> str:
        """Worker-specific message tail when ``node`` sits in an entry point."""
        if not workers:
            return ""
        for anc in module.ancestors(node):
            if isinstance(anc, (ast.FunctionDef, ast.AsyncFunctionDef)) \
                    and anc.name in workers:
                if workers[anc.name] == "process":
                    return (
                        f" ({anc.name}() is a Process target: each worker "
                        f"needs a seed handed in explicitly, or replays "
                        f"diverge per process)"
                    )
                return (
                    f" ({anc.name}() is a pool task: derive a per-chunk "
                    f"generator from the caller's seed, e.g. "
                    f"default_rng([seed, chunk_index]), or the schedule "
                    f"decides the stream)"
                )
        return ""
