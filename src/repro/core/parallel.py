"""Deterministic worker pools for per-level parallel evaluation.

The DP engine costs each level's join steps in one coster batch
(`SystemRDP._cost_splits`).  This module supplies the machinery that
fans such a batch out across workers *without changing a single bit* of
the result:

* :func:`chunk_spans` — the deterministic contiguous chunking both the
  parallel evaluator and its tests use.  Chunk boundaries depend only on
  ``(n_items, n_chunks)``, never on timing;
* :class:`WorkerPool` — an executor wrapper whose ``map_ordered``
  submits chunks in order and gathers results in the *same* fixed order,
  so merging is a plain concatenation.  The caller owns its lifetime:
  a ``with`` block around ``SystemRDP(..., pool=pool)``.

Determinism contract (see docs/architecture.md): each request's value
depends only on its own padded row inside the vectorized kernel, and the
kernel's row reductions are ``np.cumsum`` (left-to-right, transparent to
zero padding).  Chunking a batch therefore evaluates exactly the same
float operations per request as the unchunked batch, and a fixed-order
merge reproduces the sequential output bit for bit — the property the
parity suite (`tests/optimizer/test_parallel_parity.py`) pins across
pool sizes.

Threads are the default backend: the numpy kernel releases the GIL in
its array loops, so thread workers scale on multi-core hosts while
sharing distribution objects for free.  The ``processes`` backend is the
fallback for workloads dominated by python-level work; its tasks must be
module-level functions with picklable arguments.
"""

from __future__ import annotations

from concurrent.futures import ProcessPoolExecutor, ThreadPoolExecutor
from typing import Any, Callable, List, Sequence, Tuple

__all__ = ["ParallelismError", "chunk_spans", "WorkerPool"]

#: accepted backend names, in documentation order.
_BACKENDS = ("threads", "processes")


class ParallelismError(ValueError):
    """A :class:`WorkerPool` that cannot be built, or was used after close."""


def chunk_spans(n_items: int, n_chunks: int) -> List[Tuple[int, int]]:
    """Deterministic contiguous ``[start, stop)`` spans covering a batch.

    The first ``n_items % n_chunks`` chunks are one element longer;
    empty spans are dropped, so at most ``min(n_items, n_chunks)`` spans
    come back.  Boundaries are a pure function of the two sizes — the
    merge order (and with it bit-identity) never depends on scheduling.
    """
    if n_items < 0:
        raise ValueError(f"n_items must be >= 0, got {n_items}")
    if n_chunks < 1:
        raise ValueError(f"n_chunks must be >= 1, got {n_chunks}")
    base, extra = divmod(n_items, n_chunks)
    spans: List[Tuple[int, int]] = []
    start = 0
    for i in range(n_chunks):
        stop = start + base + (1 if i < extra else 0)
        if stop > start:
            spans.append((start, stop))
        start = stop
    return spans


class WorkerPool:
    """A reusable, fixed-size worker pool with order-preserving fan-out.

    The executor is created eagerly in ``__init__`` (before the pool is
    shared), and :meth:`map_ordered` is the only way work enters it:
    tasks are submitted in argument order and results gathered in the
    same order, so callers merge by concatenation and the output is
    independent of worker scheduling.
    """

    def __init__(self, backend: str = "threads", size: int = 2):
        if backend not in _BACKENDS:
            raise ParallelismError(
                f"unknown parallelism backend {backend!r}; "
                f"expected one of {_BACKENDS}"
            )
        if size < 2:
            raise ParallelismError(
                f"a WorkerPool needs >= 2 workers, got {size}; pass "
                "pool=None for sequential evaluation"
            )
        self.backend = backend
        self.size = size
        if backend == "threads":
            self._executor = ThreadPoolExecutor(
                max_workers=size, thread_name_prefix="repro-level"
            )
        else:
            self._executor = ProcessPoolExecutor(max_workers=size)
        self._closed = False

    def map_ordered(
        self, fn: Callable[..., Any], tasks: Sequence[Tuple[Any, ...]]
    ) -> List[Any]:
        """Run ``fn(*task)`` for each task; results in submission order.

        With the ``processes`` backend ``fn`` must be a module-level
        function and every task argument picklable.
        """
        if self._closed:
            raise ParallelismError("pool is closed")
        futures = [self._executor.submit(fn, *task) for task in tasks]
        return [future.result() for future in futures]

    def close(self) -> None:
        """Shut the executor down; the pool cannot be reused afterwards."""
        if not self._closed:
            self._closed = True
            self._executor.shutdown(wait=True)

    @property
    def closed(self) -> bool:
        return self._closed

    def __enter__(self) -> "WorkerPool":
        return self

    def __exit__(self, *exc) -> None:
        self.close()
