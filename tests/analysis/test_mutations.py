"""Mutation suite: every rule fires on a defect of its class in the real tree.

A fixture in ``test_rules.py`` shows that a rule can fire on a toy
module; a case here shows that it still fires where the defect would
actually land.  Each case is ``(rule, file under src/repro, exact
snippet, replacement)``.  The edit is applied in memory: the tree is
parsed once per session, only the mutated module is re-parsed, and only
the rule under test runs over the whole tree.  The case passes when one
of that rule's findings points at a replaced line: its own location, or
(for an ASYNC001 chain, reported at the coroutine's call site) the
blocking call's ``path:line`` named in the message.

A snippet that no longer matches the tree exactly once fails with the
case id, so an edit elsewhere cannot quietly retire a case.  A rule with
no case here has not shown that it catches anything, and fails
``test_every_rule_has_a_case``.
"""

from __future__ import annotations

import re
from pathlib import Path
from typing import Dict

import pytest

from repro.analysis import AnalysisEngine, ModuleInfo, iter_python_files, registered_rules

REPO = Path(__file__).resolve().parents[2]


@pytest.fixture(scope="session")
def tree() -> Dict[str, ModuleInfo]:
    """Every module under ``src/repro``, keyed by its repo-relative path.

    Relative paths keep the path-based heuristics (module names after
    ``src``, ASYNC001's package scope) independent of the checkout.
    """
    modules = {}
    for path in iter_python_files([str(REPO / "src" / "repro")]):
        rel = Path(path).relative_to(REPO).as_posix()
        modules[rel] = ModuleInfo.parse(rel, Path(path).read_text(encoding="utf-8"))
    return modules


CASES = [
    # ASYNC001: a blocking call on the gateway's event loop, directly or
    # through the sync helpers a coroutine calls.
    pytest.param(
        "ASYNC001", "cluster/gateway.py",
        "        stored = self.shared_tier.get(key)\n",
        "        time.sleep(0)\n"
        "        stored = self.shared_tier.get(key)\n",
        id="a1",
    ),
    pytest.param(
        "ASYNC001", "serving/plan_cache.py",
        "        with self._lock:\n"
        "            entry = self._entries.get(key)\n",
        "        import time\n"
        "        time.sleep(0)\n"
        "        with self._lock:\n"
        "            entry = self._entries.get(key)\n",
        id="a2",
    ),
    pytest.param(
        "ASYNC001", "cluster/admission.py",
        "        depth = int(queue_depth)\n",
        "        import time\n"
        "        time.sleep(0)\n"
        "        depth = int(queue_depth)\n",
        id="a3",
    ),
    pytest.param(
        "ASYNC001", "cluster/gateway.py",
        "            shard.writer.write(frame)\n",
        "            shard.sock.sendall(frame)\n",
        id="a4",
    ),
    # LOCK002: two locks taken in both orders — the service's close
    # lock and its tier's lock, within one class; and across modules, the
    # tier's lock and the metrics registry's, the tier typed only through
    # a TYPE_CHECKING import and reached through a call.  The tree itself
    # takes no lock while holding another.
    pytest.param(
        "LOCK002", "serving/service.py",
        "        with self._close_lock:\n"
        "            self._closed = True\n",
        "        with self._close_lock:\n"
        "            with self.cache._lock:\n"
        "                self._closed = True\n"
        "\n"
        "    def _fenced_close(self) -> None:\n"
        "        with self.cache._lock:\n"
        "            with self._close_lock:\n"
        "                self._closed = True\n",
        id="l1",
    ),
    pytest.param(
        "LOCK002", "serving/metrics.py",
        "            out[\"derived\"][\"plan_cache.hit_rate\"] = hits / (hits + misses)\n"
        "        return out\n",
        "            out[\"derived\"][\"plan_cache.hit_rate\"] = hits / (hits + misses)\n"
        "        return out\n"
        "\n"
        "    def read_cache(self, cache: PlanCache) -> None:\n"
        "        with self._lock:\n"
        "            cache.stats()\n"
        "\n"
        "    def count_cache(self, cache: PlanCache) -> None:\n"
        "        with cache._lock:\n"
        "            self.counter(\"plan_cache.entries\")\n"
        "\n"
        "\n"
        "from typing import TYPE_CHECKING\n"
        "\n"
        "if TYPE_CHECKING:\n"
        "    from .plan_cache import PlanCache\n",
        id="l3",
    ),
    # SER001: a wire kind one side of the codec does not know.
    pytest.param(
        "SER001", "tools/serialize.py",
        '{"kind": "plan", "version": 2,',
        '{"kind": "plan2", "version": 2,',
        id="s1",
    ),
    pytest.param(
        "SER001", "cluster/protocol.py",
        "    if isinstance(memory, Real):\n"
        '        return {"kind": "scalar", "value": float(memory)}\n',
        "    if isinstance(memory, (list, tuple)):\n"
        '        return {"kind": "vector", "values": [float(m) for m in memory]}\n'
        "    if isinstance(memory, Real):\n"
        '        return {"kind": "scalar", "value": float(memory)}\n',
        id="s2",
    ),
    # VER001: a statistics store with no version bump.
    pytest.param(
        "VER001", "db.py",
        "    def explain(self, plan: Plan) -> str:\n"
        '        """Human-readable plan rendering."""\n'
        "        return plan.pretty()\n",
        "    def explain(self, plan: Plan) -> str:\n"
        '        """Human-readable plan rendering."""\n'
        "        return plan.pretty()\n"
        "\n"
        "    def load_histogram(self, table: str, column: str, hist) -> None:\n"
        '        """Install a histogram built elsewhere."""\n'
        "        _store_histogram(self.stats, table, column, hist)\n"
        "\n"
        "\n"
        "def _store_histogram(stats, table, column, hist) -> None:\n"
        "    stats.table_stats(table).histograms[column] = hist\n",
        id="v1",
    ),
    pytest.param(
        "VER001", "catalog/statistics.py",
        "        stats.histograms[column] = hist\n"
        "        stats.n_distinct[column] = hist.n_distinct()\n"
        "        self._version += 1\n",
        "        stats.histograms[column] = hist\n"
        "        stats.n_distinct[column] = hist.n_distinct()\n",
        id="v2",
    ),
    # LOCK001: shared state written outside its lock.
    pytest.param(
        "LOCK001", "serving/plan_cache.py",
        "            self._entries.move_to_end(key)\n"
        "            self._hits += 1\n"
        "            return entry\n",
        "            self._entries.move_to_end(key)\n"
        "        self._hits += 1\n"
        "        return entry\n",
        id="k1",
    ),
    pytest.param(
        "LOCK001", "optimizer/facade.py",
        "    with _context_cache_lock:\n"
        "        _last_context = ctx\n",
        "    _last_context = ctx\n",
        id="k2",
    ),
]


def _points_at(finding, path: str, lines: range) -> bool:
    if finding.path == path and finding.line in lines:
        return True
    named = re.findall(rf"{re.escape(path)}:(\d+)", finding.message)
    return any(int(n) in lines for n in named)


@pytest.mark.parametrize("rule, rel, snippet, replacement", CASES)
def test_rule_fires_on_seeded_defect(request, tree, rule, rel, snippet,
                                     replacement):
    case = request.node.callspec.id
    path = f"src/repro/{rel}"
    source = tree[path].source
    matches = source.count(snippet)
    if matches != 1:
        pytest.fail(f"case {case}: snippet matches {matches} times in {path}; "
                    f"re-seed the case against the current tree")
    first = source.count("\n", 0, source.index(snippet)) + 1
    lines = range(first, first + len(replacement.splitlines()))

    mutated = ModuleInfo.parse(path, source.replace(snippet, replacement))
    modules = [mutated if p == path else m for p, m in tree.items()]
    engine = AnalysisEngine(rules=[registered_rules()[rule]()])
    findings = engine.check_modules(modules)

    assert any(_points_at(f, path, lines) for f in findings), (
        f"case {case}: {rule} did not fire at {path}:{first}-{lines[-1]}; "
        f"its findings: {[f'{f.location()}: {f.message}' for f in findings]}"
    )


def test_every_rule_has_a_case():
    assert {case.values[0] for case in CASES} == set(registered_rules())
