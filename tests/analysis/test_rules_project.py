"""Fixtures for the project-scoped rules (ASYNC001/LOCK002/SER001).

Same shape as ``test_rules.py``: each rule fires on a seeded bad example
and stays quiet on the disciplined variant.  Project rules see a
one-module project when driven through ``check_source``, which is
exactly what these fixtures need.
"""

from __future__ import annotations

import textwrap

from repro.analysis import AnalysisEngine, registered_rules


def run_rule(name: str, source: str, path: str = "probe.py"):
    engine = AnalysisEngine(rules=[registered_rules()[name]()])
    return engine.check_source(textwrap.dedent(source), path=path)


CLUSTER_PATH = "src/repro/cluster/probe.py"


class TestAsync001:
    def test_fires_on_direct_blocking_call(self):
        findings = run_rule("ASYNC001", """
            import time

            async def handler():
                time.sleep(0.5)
        """, path=CLUSTER_PATH)
        assert len(findings) == 1
        assert "time.sleep" in findings[0].message

    def test_fires_through_sync_call_chain(self):
        findings = run_rule("ASYNC001", """
            import time

            def backoff():
                time.sleep(0.1)

            def retry():
                backoff()

            async def handler():
                retry()
        """, path=CLUSTER_PATH)
        assert len(findings) == 1
        assert "retry" in findings[0].message
        assert "backoff" in findings[0].message

    def test_fires_in_a_coroutine_defined_under_async_with(self):
        findings = run_rule("ASYNC001", """
            async def replay(stack, pool):
                async with stack:
                    async def ask(job):
                        return pool.submit(job).result()
                    await ask(1)
        """, path=CLUSTER_PATH)
        assert len(findings) == 1
        assert "replay.ask" in findings[0].message

    def test_fires_through_a_call_cycle_checked_second(self):
        # r1 -> a is checked first, while a and b call each other; the
        # chain through b must not be lost to a half-finished walk.
        findings = run_rule("ASYNC001", """
            import time

            def a():
                b()
                c()

            def b():
                a()

            def c():
                time.sleep(0.1)

            async def r1():
                a()

            async def r2():
                b()
        """, path=CLUSTER_PATH)
        messages = [f.message for f in findings]
        assert len(messages) == 2
        assert any("r2 -> repro.cluster.probe.b -> repro.cluster.probe.a"
                   " -> repro.cluster.probe.c" in m for m in messages)

    def test_quiet_when_awaited(self):
        findings = run_rule("ASYNC001", """
            import asyncio

            async def handler(reader):
                return await reader.recv(4)
        """, path=CLUSTER_PATH)
        assert findings == []

    def test_quiet_when_offloaded_to_executor(self):
        findings = run_rule("ASYNC001", """
            import asyncio
            import time

            def backoff():
                time.sleep(0.1)

            async def handler():
                loop = asyncio.get_event_loop()
                await loop.run_in_executor(None, backoff)
        """, path=CLUSTER_PATH)
        assert findings == []

    def test_quiet_outside_cluster_serving_scope(self):
        findings = run_rule("ASYNC001", """
            import time

            async def handler():
                time.sleep(0.5)
        """, path="src/repro/tools/probe.py")
        assert findings == []

    def test_quiet_for_sync_functions(self):
        findings = run_rule("ASYNC001", """
            import time

            def handler():
                time.sleep(0.5)
        """, path=CLUSTER_PATH)
        assert findings == []


class TestLock002:
    def test_fires_through_callee_acquisition(self):
        findings = run_rule("LOCK002", """
            import threading

            class Tier:
                def __init__(self):
                    self._hot_lock = threading.Lock()
                    self._stats_lock = threading.Lock()

                def _evict(self):
                    with self._stats_lock:
                        pass

                def bad(self):
                    with self._hot_lock:
                        self._evict()

                def report(self):
                    with self._stats_lock:
                        with self._hot_lock:
                            pass
        """)
        assert len(findings) == 1
        assert "cycle" in findings[0].message
        assert "_evict" in findings[0].message

    def test_fires_on_lock_order_cycle(self):
        findings = run_rule("LOCK002", """
            import threading

            A = threading.Lock()
            B = threading.Lock()

            def forwards():
                with A:
                    with B:
                        pass

            def backwards():
                with B:
                    with A:
                        pass
        """)
        assert len(findings) == 1
        assert "cycle" in findings[0].message

    def test_fires_through_a_call_cycle_queried_second(self):
        # aa_first asks for loop_a first, while loop_a and loop_b call
        # each other; zz_holds_b must still see loop_b reach _a.
        findings = run_rule("LOCK002", """
            import threading

            class Pair:
                def __init__(self):
                    self._a = threading.Lock()
                    self._b = threading.Lock()
                    self._c = threading.Lock()

                def aa_first(self):
                    with self._c:
                        self.loop_a()

                def loop_a(self):
                    with self._a:
                        pass
                    self.loop_b()

                def loop_b(self):
                    self.loop_a()

                def nests(self):
                    with self._a:
                        with self._b:
                            pass

                def zz_holds_b(self):
                    with self._b:
                        self.loop_b()
        """)
        assert len(findings) == 1
        assert "probe.Pair._a" in findings[0].message
        assert "probe.Pair._b" in findings[0].message

    def test_quiet_on_consistent_order(self):
        findings = run_rule("LOCK002", """
            import threading

            A = threading.Lock()
            B = threading.Lock()

            def one():
                with A:
                    with B:
                        pass

            def two():
                with A:
                    with B:
                        pass
        """)
        assert findings == []


class TestSer001:
    def test_fires_on_kind_without_decoder(self):
        findings = run_rule("SER001", """
            def encode_thing(x):
                return {"kind": "thing", "value": x}

            def decode_thing(doc):
                if doc.get("kind") == "other":
                    return doc["value"]
        """)
        assert len(findings) == 2
        messages = " ".join(f.message for f in findings)
        assert "'thing'" in messages  # emitted, never decoded
        assert "'other'" in messages  # decoded, never emitted

    def test_quiet_on_balanced_kinds(self):
        findings = run_rule("SER001", """
            def encode_thing(x):
                return {"kind": "thing", "value": x}

            def decode_thing(doc):
                if doc.get("kind") != "thing":
                    raise ValueError(doc)
                return doc["value"]
        """)
        assert findings == []

    def test_dispatch_table_counts_as_decoder(self):
        findings = run_rule("SER001", """
            def encode_a(x):
                return {"kind": "a", "value": x}

            def _read_a(doc):
                return doc["value"]

            _DECODERS = {"a": _read_a}

            def loads(doc):
                return _DECODERS[doc["kind"]](doc)
        """)
        assert findings == []

    def test_subscript_kind_assignment_counts_as_emission(self):
        findings = run_rule("SER001", """
            def query_to_dict(q):
                doc = {"tables": list(q)}
                doc["kind"] = "query"
                return doc

            def query_from_dict(doc):
                if doc.get("kind") != "query":
                    raise ValueError(doc)
                return doc["tables"]
        """)
        assert findings == []

    def test_quiet_when_module_does_no_serialization(self):
        findings = run_rule("SER001", """
            def compare(kind):
                return kind == "point"
        """)
        assert findings == []
