"""Parallel-DP benchmarks: pooled bushy search and batched serving.

Two measurements of the parallel level evaluator:

* fanning each DP level's coster batch across a thread pool, on the
  bushy search at >= 10 relations — with *bit-identical* plans and
  objectives (the parity suite asserts the same across the whole coster
  matrix; this file re-asserts it on the timed runs so a ratio never
  comes from a different answer);
* coalescing same-shard requests into one ``optimize_batch`` frame
  keeps cluster replay throughput at least on par with the
  request-at-a-time wire path.

The pooled run hands the engine a ``WorkerPool("threads", cpu_count)``
(no pool on a 1-CPU host, where both runs are the same path).  Both
engines evaluate a level the same way — bounds, one batch, offers
(docs/architecture.md, "How a DP level is evaluated") — so the ratio is
thread scaling of that batch and nothing else.  It is recorded, with
``cpu_count``, and not asserted: the 2x floor this file used to hold on
>= 4 CPUs was met by the pool-less engine *not batching* (it evaluated
step by step then), and no committed reading has shown threads alone
reaching it (0.94x on 1 CPU, ~0.8x on 2).  Bit-parity is asserted
always.

Results land in ``BENCH_parallel.json`` via ``record_snapshot``.  The
committed copy is the regression baseline for the one ratio that still
gates: batched-vs-plain replay throughput, failing on a >25% drop —
wall-clock never gates, so a slower CI machine cannot trip it.  CI's
``bench-parallel`` job runs this file with ``--quick`` and uploads the
fresh snapshot.
"""

from __future__ import annotations

import json
import math
import os
import time
from contextlib import nullcontext

import numpy as np
import pytest

from repro.core.context import OptimizationContext
from repro.core.distributions import DiscreteDistribution
from repro.core.parallel import WorkerPool
from repro.cluster.replay import run_replay
from repro.optimizer.costers import MultiParamCoster
from repro.optimizer.systemr import SystemRDP
from repro.workloads.queries import (
    chain_query,
    with_selectivity_uncertainty,
    with_size_uncertainty,
)

from conftest import record_snapshot

#: gate slack: fail when a fresh ratio drops below committed / this.
_GATE_SLACK = 1.25

_BASELINE_PATH = os.path.join(
    os.path.dirname(__file__), "BENCH_parallel.json"
)

MEMORY = DiscreteDistribution(
    [5000.0, 2000.0, 900.0, 300.0], [0.3, 0.4, 0.2, 0.1]
)

#: fresh measurements accumulated across this module's tests, then
#: snapshotted (and gated) at the end.
_RESULTS: dict = {"bushy_dp": {}, "cluster": {}}


def _timeit(fn, repeats: int = 3, loops: int = 1) -> float:
    """Best-of-``repeats`` seconds per call of ``fn``."""
    best = float("inf")
    fn()  # warm context memos and pool spin-up outside the timing
    for _ in range(repeats):
        start = time.perf_counter()
        for _ in range(loops):
            fn()
        best = min(best, (time.perf_counter() - start) / loops)
    return best


def _bushy_query(n_relations: int):
    rng = np.random.default_rng(13)
    return with_selectivity_uncertainty(
        with_size_uncertainty(chain_query(n_relations, rng), 0.8), 0.8
    )


class TestBushyParallelSpeedup:
    def test_parallel_bushy_dp(self, quick_mode):
        """Recorded, not asserted (see the module docstring); parity is."""
        n = 10 if quick_mode else 12
        query = _bushy_query(n)
        cpus = os.cpu_count() or 1

        def run(pool):
            engine = SystemRDP(
                MultiParamCoster(MEMORY, fast=True),
                plan_space="bushy",
                context=OptimizationContext(query),
                pool=pool,
            )
            return engine.optimize(query)

        pooled = WorkerPool("threads", cpus) if cpus >= 2 else nullcontext()
        with pooled as pool:
            seq_res = run(None)
            par_res = run(pool)
            # The speedup must never come from a different answer.
            assert par_res.plan.signature() == seq_res.plan.signature()
            assert math.isclose(
                par_res.objective, seq_res.objective, rel_tol=0.0, abs_tol=0.0
            )

            seq_s = _timeit(lambda: run(None))
            par_s = _timeit(lambda: run(pool))
        speedup = seq_s / par_s
        _RESULTS["bushy_dp"] = {
            "relations": n,
            "cpu_count": cpus,
            "sequential_s": seq_s,
            "parallel_s": par_s,
            "speedup": speedup,
        }
        print(f"\n[bench-parallel] bushy n={n}: seq {seq_s:.3f}s "
              f"par {par_s:.3f}s speedup {speedup:.2f}x on {cpus} CPUs")


class TestClusterBatchedServing:
    def test_batched_replay_throughput(self, quick_mode):
        requests = 24 if quick_mode else 48
        common = dict(
            shards=2,
            n_distinct=requests,
            n_requests=requests,
            seed=7,
            concurrency=8,
            min_relations=4,
            max_relations=5,
            schedule="unique",  # every request a fresh optimization
        )
        plain = run_replay(**common)
        batched = run_replay(**common, batch_size=4)
        for report in (plain, batched):
            assert report["lost"] == 0 and report["errors"] == 0
            assert report["answered"] == report["accepted"]

        ratio = (
            batched["optimize_throughput_qps"]
            / plain["optimize_throughput_qps"]
            if plain["optimize_throughput_qps"] > 0 else 0.0
        )
        _RESULTS["cluster"] = {
            "requests": requests,
            "shards": 2,
            "batch_size": 4,
            "plain_qps": round(plain["optimize_throughput_qps"], 2),
            "batched_qps": round(batched["optimize_throughput_qps"], 2),
            "batched_over_plain": ratio,
        }
        print(f"\n[bench-parallel] cluster replay: plain "
              f"{plain['optimize_throughput_qps']:.1f}/s batched "
              f"{batched['optimize_throughput_qps']:.1f}/s "
              f"(ratio {ratio:.2f}x)")
        # Batching is a transport optimization: it must not cost
        # throughput.  Generous floor absorbs runner noise.
        assert ratio >= 0.5, (
            f"batched replay throughput collapsed to {ratio:.2f}x plain"
        )


class TestRegressionGate:
    def test_snapshot_and_gate(self, quick_mode):
        """Record the snapshot; gate the fresh replay ratio vs the committed.

        Runs last in the module (pytest executes in definition order),
        after the timing tests populated ``_RESULTS``.  Workload sizes
        differ between ``--quick`` and full mode, so the snapshot keeps
        one section per mode and the gate only compares like with like.
        Only a dimensionless ratio gates, and only the replay one: the
        bushy ratio is thread scaling on whatever host ran it.
        """
        assert _RESULTS["bushy_dp"], "timing tests must run before the gate"
        mode = "quick" if quick_mode else "full"
        committed = {}
        if os.path.exists(_BASELINE_PATH):
            with open(_BASELINE_PATH, encoding="utf-8") as fh:
                committed = json.load(fh)

        payload = {
            "gate_slack": _GATE_SLACK,
            "modes": dict(committed.get("modes", {})),
        }
        payload["modes"][mode] = dict(_RESULTS)
        record_snapshot("parallel", payload)

        baseline = committed.get("modes", {}).get(mode)
        if baseline is None:
            pytest.skip(f"no committed {mode!r}-mode baseline yet")
        committed_ratio = baseline.get("cluster", {}).get("batched_over_plain")
        if committed_ratio:
            floor = committed_ratio / _GATE_SLACK
            fresh = _RESULTS["cluster"]["batched_over_plain"]
            assert fresh >= floor, (
                f"parallel benchmark regression: batched replay ratio fresh "
                f"{fresh:.2f}x < floor {floor:.2f}x "
                f"(committed {committed_ratio:.2f}x)"
            )
