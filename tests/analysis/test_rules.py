"""Per-rule fixtures: each rule fires on a seeded bad example and stays
quiet on the corresponding disciplined one."""

from __future__ import annotations

import textwrap

from repro.analysis import AnalysisEngine, registered_rules


def run_rule(name: str, source: str, path: str = "probe.py"):
    engine = AnalysisEngine(rules=[registered_rules()[name]()])
    return engine.check_source(textwrap.dedent(source), path=path)


class TestLock001:
    BAD = """
        import threading

        class Cache:
            def __init__(self):
                self._lock = threading.Lock()
                self._entries = {}
                self._hits = 0

            def put(self, key, value):
                self._entries[key] = value      # unlocked subscript store

            def bump(self):
                self._hits += 1                 # unlocked aug-assign

            def drop(self):
                self._entries.clear()           # unlocked mutator call
        """

    GOOD = """
        import threading

        class Cache:
            def __init__(self):
                self._lock = threading.Lock()
                self._entries = {}
                self._hits = 0

            def put(self, key, value):
                with self._lock:
                    self._entries[key] = value
                    self._hits += 1

            def _evict_locked(self):
                self._entries.popitem()         # *_locked helper convention

            def peek(self):
                return self._entries            # reads are not flagged
        """

    def test_fires_on_unlocked_writes(self):
        findings = run_rule("LOCK001", self.BAD)
        assert len(findings) == 3
        assert all(f.rule == "LOCK001" for f in findings)

    def test_quiet_on_disciplined_class(self):
        assert run_rule("LOCK001", self.GOOD) == []

    def test_quiet_without_a_lock(self):
        src = """
            class Plain:
                def __init__(self):
                    self._data = {}

                def put(self, k, v):
                    self._data[k] = v
            """
        assert run_rule("LOCK001", src) == []

    def test_other_lock_attribute_counts(self):
        src = """
            import threading

            class S:
                def __init__(self):
                    self._version_lock = threading.Lock()
                    self._last = None

                def refresh(self, v):
                    with self._version_lock:
                        self._last = v
            """
        assert run_rule("LOCK001", src) == []

    def test_module_global_outside_lock_fires(self):
        src = """
            import threading

            _lock = threading.Lock()
            _cache = None

            def set_cache(value):
                global _cache
                _cache = value
            """
        findings = run_rule("LOCK001", src)
        assert len(findings) == 1
        assert "_cache" in findings[0].message

    def test_module_global_under_lock_is_quiet(self):
        src = """
            import threading

            _lock = threading.Lock()
            _cache = None

            def set_cache(value):
                global _cache
                with _lock:
                    _cache = value
            """
        assert run_rule("LOCK001", src) == []

    def test_module_global_item_store_fires(self):
        # The worker-pool registry idiom: publishing into a shared module
        # dict is a write to the global, not just rebinding it.
        src = """
            import threading

            _POOLS = {}
            _POOLS_LOCK = threading.Lock()

            def get_pool(key, pool):
                global _POOLS
                _POOLS[key] = pool
            """
        findings = run_rule("LOCK001", src)
        assert len(findings) == 1
        assert "_POOLS" in findings[0].message

    def test_module_global_mutator_call_fires(self):
        src = """
            import threading

            _QUEUE = []
            _LOCK = threading.Lock()

            def push(item):
                global _QUEUE
                _QUEUE.append(item)
            """
        findings = run_rule("LOCK001", src)
        assert len(findings) == 1
        assert "_QUEUE" in findings[0].message
        assert ".append()" in findings[0].message

    def test_module_global_unpacking_and_delete_fire(self):
        src = """
            import threading

            _A = None
            _B = None
            _LOCK = threading.Lock()

            def reset(x, y):
                global _A, _B
                _A, _B = x, y

            def drop():
                global _A
                del _A
            """
        findings = run_rule("LOCK001", src)
        assert len(findings) == 3
        assert sum("_A" in f.message for f in findings) == 2
        assert sum("_B" in f.message for f in findings) == 1

    def test_module_global_item_store_under_lock_is_quiet(self):
        src = """
            import threading

            _POOLS = {}
            _POOLS_LOCK = threading.Lock()

            def get_pool(key, pool):
                global _POOLS
                with _POOLS_LOCK:
                    _POOLS[key] = pool
                    _POOLS.setdefault(key, pool)
            """
        assert run_rule("LOCK001", src) == []


class TestVer001:
    BAD = """
        class StatisticsCatalog:
            def __init__(self, schema):
                self._stats = {}
                self._version = 0

            def analyze_column(self, table, col, hist):
                self._stats[table][col] = hist   # mutation, no bump
        """

    GOOD = """
        class StatisticsCatalog:
            def __init__(self, schema):
                self._stats = {}
                self._version = 0

            def bump_version(self):
                self._version += 1
                return self._version

            def analyze_column(self, table, col, hist):
                self._stats[table][col] = hist
                self._version += 1

            def table_stats(self, table):
                return self._stats[table]        # pure read
        """

    def test_fires_on_unbumped_mutation(self):
        findings = run_rule("VER001", self.BAD)
        assert len(findings) == 1
        assert "analyze_column" in findings[0].message

    def test_quiet_when_bumped(self):
        assert run_rule("VER001", self.GOOD) == []

    def test_derived_local_mutation_fires(self):
        src = """
            class SelectivityFeedback:
                def __init__(self):
                    self._history = {}
                    self._version = 0

                def record(self, obs):
                    hist = self._history
                    hist.update(obs)             # via derived local
            """
        assert len(run_rule("VER001", src)) == 1

    def test_conditional_bump_counts(self):
        src = """
            class SelectivityFeedback:
                def __init__(self):
                    self._history = {}
                    self._version = 0

                def record(self, obs):
                    count = 0
                    self._history.update(obs)
                    if count:
                        self._version += 1
            """
        assert run_rule("VER001", src) == []

    def test_out_of_band_stats_edit_fires(self):
        src = """
            def rebuild(old, new):
                cur = new.table_stats("t")
                cur.size_distribution = old.dist     # out-of-band edit
            """
        findings = run_rule("VER001", src)
        assert len(findings) == 1
        assert "rebuild" in findings[0].message

    def test_out_of_band_edit_with_bump_is_quiet(self):
        src = """
            def rebuild(old, new):
                cur = new.table_stats("t")
                cur.size_distribution = old.dist
                new.bump_version()
            """
        assert run_rule("VER001", src) == []


class TestRepoIsClean:
    def test_src_repro_has_no_findings(self):
        # The CI gate in test form: the shipped tree satisfies its own
        # invariants with an empty baseline.
        import os

        import repro

        src_root = os.path.dirname(os.path.dirname(repro.__file__))
        engine = AnalysisEngine()
        findings = engine.check_paths([os.path.join(src_root, "repro")])
        assert findings == [], "\n".join(
            f"{f.location()}: {f.rule}: {f.message}" for f in findings
        )
        assert not engine.errors
