"""Distribution-kernel micro benchmarks and the regression gate.

Times the vectorized kernel against the pure-python reference
implementations in ``tests/core/reference_kernel.py`` (the behavioral
spec the differential oracle suite checks against) and asserts the
speedups the vectorization was built for:

* convolution / product / rebucket micro-ops — ≥5x over the reference;
* batched expected join cost — ≥5x over the reference triple loop;
* Algorithm D end-to-end, cold and warm context — recorded for tracking.

Results land in ``BENCH_kernel.json`` via :func:`record_snapshot`.  The
committed copy of that file is the regression baseline: the gate test
compares freshly measured speedup *ratios* (not wall-clock, which varies
across machines) against the committed ones and fails on a >25% drop.
CI's ``bench-kernel`` job runs this file with ``--quick`` and uploads
the fresh snapshot as an artifact.
"""

from __future__ import annotations

import json
import os
import time

import numpy as np
import pytest

from repro.optimizer import optimize_algorithm_d
from repro.core.distributions import DiscreteDistribution
from repro.costmodel.context import OptimizationContext
from repro.costmodel.expected_cost import FAST_METHODS, expected_join_costs_batched
from repro.costmodel.model import CostModel
from repro.workloads.queries import (
    chain_query,
    with_selectivity_uncertainty,
    with_size_uncertainty,
)
from tests.core import reference_kernel as ref

from conftest import record_snapshot

#: gate slack: fail when a fresh speedup drops below committed / this.
_GATE_SLACK = 1.25
#: the vectorization target from the kernel issue.
_MIN_SPEEDUP = 5.0

_BASELINE_PATH = os.path.join(os.path.dirname(__file__), "BENCH_kernel.json")

MEMORY = DiscreteDistribution(
    [5000.0, 2000.0, 900.0, 300.0], [0.3, 0.4, 0.2, 0.1]
)

#: fresh measurements accumulated across the tests in this module, then
#: snapshotted (and gated) at the end.
_RESULTS: dict = {"micro": {}, "algorithm_d": {}}


def _timeit(fn, repeats: int = 5, loops: int = 3) -> float:
    """Best-of-``repeats`` seconds per call of ``fn`` (median-free min)."""
    best = float("inf")
    fn()  # warm caches, JIT-free but first-call allocations happen here
    for _ in range(repeats):
        start = time.perf_counter()
        for _ in range(loops):
            fn()
        best = min(best, (time.perf_counter() - start) / loops)
    return best


def _random_support(rng: np.random.Generator, n: int):
    values = np.sort(rng.uniform(1.0, 1e6, size=n))
    probs = rng.uniform(0.1, 1.0, size=n)
    probs = probs / probs.sum()
    return values.tolist(), probs.tolist()


def _record_micro(name: str, ref_s: float, vec_s: float) -> float:
    speedup = ref_s / vec_s
    _RESULTS["micro"][name] = {
        "ref_ms": ref_s * 1e3,
        "vec_ms": vec_s * 1e3,
        "speedup": speedup,
    }
    print(f"\n[bench-kernel] {name}: ref {ref_s * 1e3:.3f}ms "
          f"vec {vec_s * 1e3:.3f}ms speedup {speedup:.1f}x")
    return speedup


class TestMicroOps:
    @pytest.mark.parametrize("op", ["convolve", "multiply"])
    def test_pairwise_op_speedup(self, quick_mode, op):
        n = 48 if quick_mode else 96
        rng = np.random.default_rng(3)
        sa, sb = _random_support(rng, n), _random_support(rng, n)
        da = DiscreteDistribution(*sa)
        db = DiscreteDistribution(*sb)
        ref_fn = getattr(ref, op)
        ref_s = _timeit(lambda: ref_fn(sa, sb))
        vec_s = _timeit(lambda: getattr(da, op)(db))
        assert _record_micro(op, ref_s, vec_s) >= _MIN_SPEEDUP

    def test_rebucket_speedup(self, quick_mode):
        n = 4096 if quick_mode else 8192
        rng = np.random.default_rng(4)
        support = _random_support(rng, n)
        dist = DiscreteDistribution(*support)
        ref_s = _timeit(lambda: ref.rebucket(*support, 16))
        vec_s = _timeit(lambda: dist.rebucket(16))
        assert _record_micro("rebucket", ref_s, vec_s) >= _MIN_SPEEDUP

    def test_batched_expected_cost_speedup(self, quick_mode):
        n_pairs = 12 if quick_mode else 32
        b = 12 if quick_mode else 16
        rng = np.random.default_rng(5)
        cm = CostModel(count_evaluations=False)
        methods = sorted(FAST_METHODS, key=lambda m: m.value)
        supports = [
            (_random_support(rng, b), _random_support(rng, b))
            for _ in range(n_pairs)
        ]
        requests = [
            (methods[i % len(methods)],
             DiscreteDistribution(*sl), DiscreteDistribution(*sr))
            for i, (sl, sr) in enumerate(supports)
        ]
        mem_support = (MEMORY.values.tolist(), MEMORY.probs.tolist())

        def reference_all():
            return [
                ref.expected_join_cost(
                    lambda l, r, m, _mth=methods[i % len(methods)]:
                        cm.join_cost(_mth, l, r, m),
                    sl, sr, mem_support,
                )
                for i, (sl, sr) in enumerate(supports)
            ]

        ref_s = _timeit(reference_all, loops=1)
        vec_s = _timeit(lambda: expected_join_costs_batched(requests, MEMORY))
        assert _record_micro("batched_expected_cost", ref_s, vec_s) \
            >= _MIN_SPEEDUP


class TestAlgorithmDEndToEnd:
    def test_cold_and_warm(self, quick_mode):
        n = 4 if quick_mode else 5
        rng = np.random.default_rng(6)
        query = with_selectivity_uncertainty(
            with_size_uncertainty(chain_query(n, rng), 0.8), 0.8
        )

        start = time.perf_counter()
        context = OptimizationContext(query)
        cold_res = optimize_algorithm_d(query, MEMORY, context=context)
        cold_s = time.perf_counter() - start

        start = time.perf_counter()
        warm_res = optimize_algorithm_d(query, MEMORY, context=context)
        warm_s = time.perf_counter() - start

        assert warm_res.plan.signature() == cold_res.plan.signature()
        _RESULTS["algorithm_d"] = {
            "relations": n,
            "cold_s": cold_s,
            "warm_s": warm_s,
        }
        print(f"\n[bench-kernel] algorithm-d n={n}: "
              f"cold {cold_s:.3f}s warm {warm_s:.3f}s")


class TestRegressionGate:
    def test_snapshot_and_gate(self, quick_mode):
        """Record the snapshot; gate fresh speedups vs the committed one.

        Runs last in the module (pytest executes in definition order),
        after the micro tests populated ``_RESULTS``.  Workload sizes —
        and with them the attainable speedups — differ between ``--quick``
        and full mode, so the snapshot keeps one section per mode and the
        gate only compares like with like.  It compares dimensionless
        speedup ratios, not wall-clock, so a slower CI machine does not
        trip it — only a genuinely regressed kernel does.
        """
        assert _RESULTS["micro"], "micro benchmarks must run before the gate"
        mode = "quick" if quick_mode else "full"
        committed = {}
        if os.path.exists(_BASELINE_PATH):
            with open(_BASELINE_PATH, encoding="utf-8") as fh:
                committed = json.load(fh)

        payload = {
            "min_speedup": _MIN_SPEEDUP,
            "gate_slack": _GATE_SLACK,
            "modes": dict(committed.get("modes", {})),
        }
        payload["modes"][mode] = dict(_RESULTS)
        record_snapshot("kernel", payload)

        baseline = committed.get("modes", {}).get(mode)
        if baseline is None:
            pytest.skip(f"no committed {mode!r}-mode baseline yet")
        regressions = []
        for name, fresh in _RESULTS["micro"].items():
            base = baseline.get("micro", {}).get(name)
            if base is None:
                continue
            floor = base["speedup"] / _GATE_SLACK
            if fresh["speedup"] < floor:
                regressions.append(
                    f"{name}: fresh {fresh['speedup']:.1f}x < "
                    f"floor {floor:.1f}x (committed {base['speedup']:.1f}x)"
                )
        assert not regressions, "kernel speedup regression: " + "; ".join(
            regressions
        )
