"""Tests for the whole-program model (`repro.analysis.project`).

These exercise the model directly — module naming, import resolution,
candidate attribute types, call-graph edges, held-lock tracking,
blocking classification — because the project rules are only as good
as the facts summarized here.
"""

from __future__ import annotations

import textwrap

from repro.analysis.engine import ModuleInfo
from repro.analysis.project import ProjectInfo, module_name_for_path


def build(*named_sources):
    """Build a ProjectInfo from (path, source) pairs."""
    infos = [
        ModuleInfo.parse(path, textwrap.dedent(source))
        for path, source in named_sources
    ]
    return ProjectInfo.build(infos)


class TestModuleNaming:
    def test_src_anchored_paths(self):
        assert module_name_for_path("src/repro/cluster/gateway.py") \
            == "repro.cluster.gateway"
        assert module_name_for_path("src\\repro\\core\\context.py") \
            == "repro.core.context"

    def test_init_maps_to_package(self):
        assert module_name_for_path("src/repro/analysis/__init__.py") \
            == "repro.analysis"

    def test_last_src_segment_wins(self):
        assert module_name_for_path("work/src/vendor/src/pkg/mod.py") \
            == "pkg.mod"

    def test_bare_filename_falls_back_to_stem(self):
        assert module_name_for_path("probe.py") == "probe"

    def test_unanchored_path_uses_relative_parts(self):
        assert module_name_for_path("tests/analysis/test_x.py") \
            == "tests.analysis.test_x"


class TestImportResolution:
    def test_plain_aliased_and_from_imports(self):
        project = build(("src/pkg/a.py", """
            import time
            import os.path as osp
            from json import dumps as jdumps
        """))
        assert project.resolve("pkg.a", "time.sleep") == "time.sleep"
        assert project.resolve("pkg.a", "osp.join") == "os.path.join"
        assert project.resolve("pkg.a", "jdumps") == "json.dumps"

    def test_relative_import(self):
        project = build(
            ("src/pkg/sub/a.py", "from .b import helper\n"),
            ("src/pkg/sub/b.py", "def helper():\n    pass\n"),
        )
        assert project.resolve("pkg.sub.a", "helper") == "pkg.sub.b.helper"

    def test_module_local_symbols(self):
        project = build(("src/pkg/a.py", """
            class C:
                pass

            def f():
                pass
        """))
        assert project.resolve("pkg.a", "C") == "pkg.a.C"
        assert project.resolve("pkg.a", "f") == "pkg.a.f"
        assert project.resolve("pkg.a", "nope") is None


class TestAttributeTypes:
    def test_annotation_ctor_and_param_seeding(self):
        project = build(("src/pkg/m.py", """
            from typing import Optional

            class Cache:
                def __len__(self):
                    return 0

            class Owner:
                def __init__(self, cache: Cache):
                    self.direct = Cache()
                    self.from_param = cache
                    self.annotated: Optional[Cache] = None
        """))
        owner = project.classes["pkg.m.Owner"]
        for attr in ("direct", "from_param", "annotated"):
            assert owner.attr_types[attr] == {"pkg.m.Cache"}, attr


class TestCallGraph:
    SOURCE = ("src/pkg/m.py", """
        import threading

        class Tier:
            def __init__(self):
                self._lock = threading.Lock()

            def get(self):
                with self._lock:
                    return 1

        class Front:
            def __init__(self):
                self.tier = Tier()
                self._front_lock = threading.Lock()

            def serve(self):
                with self._front_lock:
                    return self.tier.get()
    """)

    def test_method_call_edges_via_attr_types(self):
        project = build(self.SOURCE)
        serve = project.functions["pkg.m.Front.serve"]
        edges = {c.text: c.callees for c in serve.calls}
        assert edges["self.tier.get"] == ("pkg.m.Tier.get",)

    def test_held_locks_at_call_sites(self):
        project = build(self.SOURCE)
        serve = project.functions["pkg.m.Front.serve"]
        (call,) = [c for c in serve.calls if c.text == "self.tier.get"]
        assert call.held == ("pkg.m.Front._front_lock",)

    def test_transitive_acquires(self):
        project = build(self.SOURCE)
        acquired = project.transitive_acquires("pkg.m.Front.serve")
        assert set(acquired) == {
            "pkg.m.Front._front_lock", "pkg.m.Tier._lock",
        }

    def test_transitive_acquires_survives_recursion(self):
        project = build(("src/pkg/r.py", """
            import threading

            _lock = threading.Lock()

            def ping(n):
                with _lock:
                    pass
                return pong(n)

            def pong(n):
                return ping(n - 1) if n else 0
        """))
        assert project.transitive_acquires("pkg.r.ping") == {"pkg.r._lock"}
        # Asked after ping, pong still sees the lock ping takes.
        assert project.transitive_acquires("pkg.r.pong") == {"pkg.r._lock"}


class TestBlockingSummaries:
    def test_time_sleep_and_socket_and_future_result(self):
        project = build(("src/pkg/m.py", """
            import time

            def slow(sock, fut):
                time.sleep(1.0)
                sock.recv(4)
                return fut.result()
        """))
        kinds = [b.kind for b in project.functions["pkg.m.slow"].blocking]
        assert kinds == ["time.sleep", "socket", "future-result"]

    def test_awaited_calls_are_exempt(self):
        project = build(("src/pkg/m.py", """
            async def fine(reader):
                data = await reader.recv(4)
                return data
        """))
        assert project.functions["pkg.m.fine"].blocking == []

    def test_nested_defs_do_not_leak_into_parent_summary(self):
        project = build(("src/pkg/m.py", """
            import time

            def outer():
                def inner():
                    time.sleep(1.0)
                return inner
        """))
        assert project.functions["pkg.m.outer"].blocking == []
        assert [b.kind for b in project.functions["pkg.m.outer.inner"].blocking] \
            == ["time.sleep"]
