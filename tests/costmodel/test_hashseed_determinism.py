"""Objectives must not depend on ``PYTHONHASHSEED``.

Size estimates are float products over relation sets; multiplied in
``frozenset`` iteration order they moved by an ulp with the interpreter's
hash seed, so two cluster workers (two hash seeds) could disagree on a
cost — and an ulp can flip a tie.  One bushy chain-8 query (generator
seed 1: the parent commit returned ``1981144.3619110545`` under hash
seed 0 and ``...547`` under seeds 1 and 2) is optimized in fresh
interpreters under four hash seeds and must answer identically.

So must a *seeded* randomized search: its random starts used to draw
from a list built by iterating a set of relation names (chain-6,
``default_rng(5)``: 368 / 362 / 380 / 368 evaluations under hash seeds
0-3 and a different plan under seed 3).

So must a distribution's ``hash``: a pickled distribution carries the
hash it was given, so hashing its bytes (salted per interpreter) would
file it under another value in the process that unpickles it.
"""

from __future__ import annotations

import os
import subprocess
import sys
from pathlib import Path

import repro

_SCRIPT = """
import numpy as np
import repro
from repro.core.distributions import DiscreteDistribution
from repro.costmodel.model import CostModel
from repro.optimizer import iterative_improvement
from repro.workloads.queries import chain_query, with_selectivity_uncertainty

memory = DiscreteDistribution([400.0, 1500.0, 4000.0], [0.25, 0.5, 0.25])
query = with_selectivity_uncertainty(
    chain_query(8, np.random.default_rng(1)), 1.0, n_buckets=4
)
for objective in ("point", "lec"):
    repro.clear_context_cache()
    result = repro.optimize(query, objective, memory=memory, plan_space="bushy")
    print(objective, repr(result.objective), result.plan.signature())

cm = CostModel()
query = chain_query(6, np.random.default_rng(1))
found = iterative_improvement(
    query,
    lambda plan: cm.plan_expected_cost(plan, query, memory),
    np.random.default_rng(5),
)
print("iterative_improvement", found.evaluations, found.plan.signature())
print("distribution hash", hash(memory))  # pickled with the instance: unsalted
"""


def _answers(hash_seed: int) -> str:
    src = str(Path(repro.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONHASHSEED=str(hash_seed), PYTHONPATH=src)
    done = subprocess.run(
        [sys.executable, "-c", _SCRIPT],
        env=env, capture_output=True, text=True, timeout=120,
    )
    assert done.returncode == 0, done.stderr
    return done.stdout


def test_objective_and_plan_are_identical_under_every_hash_seed():
    answers = {seed: _answers(seed) for seed in (0, 1, 2, 3)}
    assert answers[0].count("\n") == 4
    assert len(set(answers.values())) == 1, answers
