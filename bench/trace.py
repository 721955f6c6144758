"""The traced run: wrap the layers' public callables from outside.

One table (:data:`TABLE`: layer -> dotted public callables) and one
:class:`Tracer` that, only while installed, replaces those callables by
timing wrappers and puts every one of them back afterwards.  Nothing
here runs when ``--trace`` is 0.

Three kinds of wrapper:

``span``  coarse boundaries (``repro.optimize``, ``SystemRDP.optimize``,
          ``PlanCache.get`` ...): one record per call — id, name, start,
          end, parent span, op id, thread — kept in memory and written
          to ``bench/results/trace-<workload>.jsonl`` at the end.
``acc``   per-step callables called thousands of times per op
          (``TopKList.offer``, ``Coster.join_step_cost`` ...): only
          (count, total ns, child ns, size) accumulated.
``gen``   generator functions (``FrameDecoder.feed``): each ``next()``
          is timed, so the time is charged where the body runs.

All three share one per-thread depth stack, so a callable's **self
time** is its duration minus the part covered by the traced callables it
called, whatever their kind; a layer's self time is the sum over its
callables.  Worker processes are not instrumented (the tracer is
installed after the gateway has forked them).
"""

from __future__ import annotations

import functools
import importlib
import inspect
import json
import sys
import threading
import time
from typing import Any, Callable, Dict, Iterable, List, Optional, Sequence, Tuple

__all__ = ["TABLE", "Tracer", "self_times", "SIZE_OF"]

_COSTERS = ("PointCoster", "ExpectedCoster", "MarkovCoster", "MultiParamCoster")

#: layer -> ((dotted public callable, kind), ...)
TABLE: Dict[str, Tuple[Tuple[str, str], ...]] = {
    "optimizer.facade": (("repro.optimizer.facade.optimize", "span"),),
    "optimizer.systemr": (
        ("repro.optimizer.systemr.SystemRDP.optimize", "span"),
    ),
    "plans.space": tuple(
        (f"repro.plans.space.PlanSpace.{m}", "acc")
        for m in ("partitions", "join", "level_candidates")
    ),
    "optimizer.topk": (
        ("repro.optimizer.topk.TopKList.offer", "acc"),
        ("repro.optimizer.topk.merge_top_combinations", "acc"),
    ),
    "optimizer.costers": (
        ("repro.optimizer.costers.Coster.access_cost", "acc"),
        *(
            (f"repro.optimizer.costers.{cls}.{m}", "acc")
            for cls in _COSTERS
            for m in ("join_step_cost", "prefetch_join_steps", "write_cost",
                      "final_sort_cost")
        ),
    ),
    "core.context": (
        ("repro.core.context.query_fingerprint", "acc"),
        *(
            (f"repro.core.context.OptimizationContext.{m}", "acc")
            for m in ("subset_size", "subset_pages", "subset_bounds",
                      "size_distribution", "product", "convolve", "rebucket",
                      "survival_table", "step_cost", "has_step_cost",
                      "batched_join_costs")
        ),
    ),
    "core.expected_cost": tuple(
        (f"repro.core.expected_cost.{f}", "acc")
        for f in ("expected_join_costs_batched",
                  "expected_join_costs_batched_parallel",
                  "expected_join_cost_fast", "expected_join_cost_naive",
                  "expected_join_cost_naive_model",
                  "expected_external_sort_cost",
                  "expected_external_sort_cost_model")
    ),
    "core.distributions": tuple(
        (f"repro.core.distributions.DiscreteDistribution.{m}", "acc")
        for m in ("convolve", "multiply", "rebucket", "expectation")
    ),
    "costmodel": tuple(
        (f"repro.costmodel.model.CostModel.{m}", "acc")
        for m in ("join_cost", "sort_merge_cost_ordered", "sort_cost",
                  "join_cost_many", "sort_merge_cost_ordered_many",
                  "sort_cost_many", "scan_node_cost")
    ),
    "core.parallel": (("repro.core.parallel.WorkerPool.map_ordered", "acc"),),
    "serving.service": (
        ("repro.serving.service.OptimizerService.submit", "span"),
    ),
    "serving.plan_cache": tuple(
        (f"repro.serving.plan_cache.PlanCache.{m}", "span")
        for m in ("get", "put", "invalidate_stale")
    ),
    "serving.metrics": (
        ("repro.serving.metrics.Counter.increment", "acc"),
        ("repro.serving.metrics.LatencyHistogram.record", "acc"),
        ("repro.serving.metrics.MetricsRegistry.counter", "acc"),
        ("repro.serving.metrics.MetricsRegistry.histogram", "acc"),
    ),
    "tools.serialize": tuple(
        (f"repro.tools.serialize.{f}", "acc")
        for f in ("query_to_dict", "query_from_dict", "plan_to_dict",
                  "plan_from_dict")
    ),
    "cluster.protocol": (
        ("repro.cluster.protocol.encode_frame", "acc"),
        ("repro.cluster.protocol.encode_memory", "acc"),
        ("repro.cluster.protocol.FrameDecoder.feed", "gen"),
    ),
    "cluster.admission": (
        ("repro.cluster.admission.AdmissionController.decide", "acc"),
        ("repro.cluster.admission.AdmissionController.observe_service_time",
         "acc"),
    ),
    "cluster.shared_cache": (
        ("repro.cluster.shared_cache.cache_key_digest", "acc"),
        ("repro.cluster.shared_cache.fingerprint_digest", "acc"),
        ("repro.cluster.shared_cache.SharedPlanTier.invalidate_stale", "span"),
    ),
    "cluster.gateway": (
        ("repro.cluster.metrics.ClusterMetrics.observe_request", "acc"),
    ),
}

#: Callables whose work has a size worth recording: dotted name -> a
#: function of the call's positional arguments.
SIZE_OF: Dict[str, Callable[[tuple], int]] = {
    "repro.core.expected_cost.expected_join_costs_batched":
        lambda args: len(args[0]),
    "repro.cluster.protocol.FrameDecoder.feed": lambda args: len(args[1]),
}

#: Callables whose first ``TAP_LIMIT`` results are kept, so the ledger can
#: time the pure wire functions again on the real documents.
TAPPED = (
    "repro.cluster.protocol.encode_frame",
    "repro.cluster.protocol.FrameDecoder.feed",
)
TAP_LIMIT = 512

_now = time.perf_counter_ns


def self_times(spans: Iterable[Dict[str, Any]]) -> Dict[int, int]:
    """Self time per span id: duration minus what direct children cover.

    ``spans`` are records with ``id``, ``start``, ``end`` and ``parent``
    (``None`` for a root).  Children of one span run one after another on
    one thread, so their durations add.
    """
    spans = list(spans)
    own = {s["id"]: s["end"] - s["start"] for s in spans}
    for s in spans:
        if s["parent"] is not None and s["parent"] in own:
            own[s["parent"]] -= s["end"] - s["start"]
    return own


class Tracer:
    """Installs, accumulates, restores.  One instance per traced run."""

    def __init__(self, table: Optional[Dict[str, Sequence[Tuple[str, str]]]] = None):
        self.table = TABLE if table is None else table
        self._tls = threading.local()
        #: dotted name -> [calls, total ns, child ns, size]
        self.stats: Dict[str, List[int]] = {}
        #: (id, name, start, end, parent id, op id, thread name)
        self.spans: List[Tuple[int, str, int, int, Optional[int], Optional[int], str]] = []
        self.taps: Dict[str, List[Any]] = {name: [] for name in TAPPED}
        self.record_spans = True
        #: ns spent in traced callables that had no traced caller, per
        #: thread name — work done off the client thread (a service pool
        #: thread, the gateway's executor) shows up here.
        self.root_ns: Dict[str, int] = {}
        self.op_id: Optional[int] = None
        self._next_id = 0
        self._restore: List[Tuple[Any, str, Any]] = []
        self.installed = False

    # -- the per-thread depth stack ------------------------------------

    def _stack(self) -> List[List[int]]:
        try:
            return self._tls.stack
        except AttributeError:
            self._tls.stack = stack = []
            return stack

    def _close(self, stack, frame, slot, elapsed: int, size: int) -> None:
        slot[0] += 1
        slot[1] += elapsed
        slot[2] += frame[0]
        slot[3] += size
        if stack:
            stack[-1][0] += elapsed
        else:
            name = threading.current_thread().name
            self.root_ns[name] = self.root_ns.get(name, 0) + elapsed

    # -- wrappers ------------------------------------------------------

    def _wrap(self, name: str, fn: Callable, kind: str) -> Callable:
        slot = self.stats.setdefault(name, [0, 0, 0, 0])
        size_of = SIZE_OF.get(name)
        tap = self.taps.get(name)
        get_stack, close = self._stack, self._close

        if kind == "gen":
            @functools.wraps(fn)
            def gen_wrapper(*args, **kwargs):
                size = size_of(args) if size_of is not None else 0
                it = fn(*args, **kwargs)
                elapsed, frame, stack = 0, [0, -1], get_stack()
                try:
                    while True:
                        stack.append(frame)
                        t0 = _now()
                        try:
                            item = next(it)
                        except StopIteration:
                            return
                        finally:
                            elapsed += _now() - t0
                            stack.pop()
                        if tap is not None and len(tap) < TAP_LIMIT:
                            tap.append(item)
                        yield item
                finally:
                    close(stack, frame, slot, elapsed, size)
            return gen_wrapper

        if kind == "acc":
            @functools.wraps(fn)
            def acc_wrapper(*args, **kwargs):
                stack = get_stack()
                frame = [0, -1]
                stack.append(frame)
                t0 = _now()
                try:
                    result = fn(*args, **kwargs)
                finally:
                    elapsed = _now() - t0
                    stack.pop()
                    close(stack, frame, slot, elapsed,
                          size_of(args) if size_of is not None else 0)
                if tap is not None and len(tap) < TAP_LIMIT:
                    tap.append((args[0], result))
                return result
            return acc_wrapper

        if kind != "span":
            raise ValueError(f"unknown wrapper kind {kind!r} for {name}")

        @functools.wraps(fn)
        def span_wrapper(*args, **kwargs):
            stack = get_stack()
            parent = next((f[1] for f in reversed(stack) if f[1] >= 0), None)
            self._next_id += 1
            frame = [0, self._next_id]
            stack.append(frame)
            t0 = _now()
            try:
                return fn(*args, **kwargs)
            finally:
                t1 = _now()
                stack.pop()
                close(stack, frame, slot, t1 - t0, 0)
                if self.record_spans:
                    self.spans.append((
                        frame[1], name, t0, t1, parent, self.op_id,
                        threading.current_thread().name,
                    ))
        return span_wrapper

    # -- install / restore ---------------------------------------------

    @staticmethod
    def _resolve(dotted: str) -> Tuple[Any, str]:
        """``(owner, attribute)`` for a dotted path; owner is a module or class."""
        parts = dotted.split(".")
        for cut in range(len(parts) - 1, 0, -1):
            try:
                owner = importlib.import_module(".".join(parts[:cut]))
            except ImportError:
                continue
            for attr in parts[cut:-1]:
                owner = getattr(owner, attr)
            return owner, parts[-1]
        raise ImportError(f"cannot resolve {dotted!r}")

    def install(self) -> "Tracer":
        if self.installed:
            raise RuntimeError("tracer already installed")
        self.installed = True
        for entries in self.table.values():
            for dotted, kind in entries:
                owner, attr = self._resolve(dotted)
                original = inspect.getattr_static(owner, attr)
                wrapper = self._wrap(dotted, original, kind)
                if inspect.isclass(owner):
                    if attr not in vars(owner):
                        # Restoring would plant an inherited attribute on
                        # the subclass; the table names the defining class.
                        raise AttributeError(
                            f"{dotted}: {attr!r} is inherited, not defined there"
                        )
                    self._set(owner, attr, original, wrapper)
                    continue
                # A module function: every repro module that imported it
                # holds its own reference, under whatever name.
                for module in list(sys.modules.values()):
                    if module is None or not getattr(
                        module, "__name__", ""
                    ).startswith("repro"):
                        continue
                    for key, value in list(vars(module).items()):
                        if value is original:
                            self._set(module, key, original, wrapper)
        return self

    def _set(self, owner, attr: str, original, wrapper) -> None:
        self._restore.append((owner, attr, original))
        setattr(owner, attr, wrapper)

    def uninstall(self) -> None:
        while self._restore:
            owner, attr, original = self._restore.pop()
            setattr(owner, attr, original)
        self.installed = False

    def __enter__(self) -> "Tracer":
        return self.install()

    def __exit__(self, *exc) -> None:
        self.uninstall()

    # -- reading the ledger --------------------------------------------

    def calls(self, dotted: str) -> int:
        return self.stats.get(dotted, (0, 0, 0, 0))[0]

    def total_ns(self, dotted: str) -> int:
        return self.stats.get(dotted, (0, 0, 0, 0))[1]

    def size(self, dotted: str) -> int:
        return self.stats.get(dotted, (0, 0, 0, 0))[3]

    def self_ns(self, dotted: str) -> int:
        slot = self.stats.get(dotted, (0, 0, 0, 0))
        return slot[1] - slot[2]

    def layer_self_ns(self, layer: str) -> int:
        return sum(self.self_ns(dotted) for dotted, _ in self.table[layer])

    def layer_calls(self, layer: str, suffixes: Sequence[str]) -> int:
        return sum(
            self.calls(dotted) for dotted, _ in self.table[layer]
            if dotted.rsplit(".", 1)[1] in suffixes
        )

    def write_spans(self, path) -> None:
        with open(path, "w", encoding="utf-8") as out:
            for sid, name, start, end, parent, op, thread in self.spans:
                out.write(json.dumps({
                    "id": sid, "name": name, "start": start, "end": end,
                    "parent": parent, "op": op, "thread": thread,
                }) + "\n")
