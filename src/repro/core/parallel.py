"""Tombstone of the retired level pool (docs/architecture.md, "Why there
is no level pool"): a DP level is costed on the calling thread."""

__all__: list = []


class WorkerPool:
    """Uncalled, never constructed.  Frozen ``bench/trace.py`` line 94
    (TABLE ``"core.parallel"``) resolves ``WorkerPool.map_ordered`` on
    this class; both go when ``bench/`` unfreezes."""

    def map_ordered(self, fn, tasks):
        raise NotImplementedError("the level pool was retired")
