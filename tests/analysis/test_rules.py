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


class TestFlt001:
    def test_fires_on_cost_equality(self):
        findings = run_rule("FLT001", "picked = plan_cost == best_cost\n")
        assert len(findings) == 1
        assert "==" in findings[0].message

    def test_fires_on_probability_inequality(self):
        assert len(run_rule("FLT001", "x = prob != 0.0\n")) == 1

    def test_fires_on_mean_call(self):
        assert len(run_rule("FLT001", "same = a.mean() == b.mean()\n")) == 1

    def test_quiet_on_ordered_comparison(self):
        assert run_rule("FLT001", "better = cost < best_cost\n") == []

    def test_quiet_on_tolerance_helper(self):
        src = "from repro.core.floats import costs_close\nok = costs_close(a, b)\n"
        assert run_rule("FLT001", src) == []

    def test_quiet_on_string_comparison(self):
        # `objective` is float-y by name, but comparing against a string
        # literal is clearly a mode check, not a float comparison.
        assert run_rule("FLT001", 'lec = objective == "lec"\n') == []

    def test_quiet_on_unrelated_names(self):
        assert run_rule("FLT001", "same = n_buckets == 4\n") == []

    def test_quiet_in_test_files(self):
        # An exact assert is how parity suites say "bitwise".
        src = "assert plan_cost == best_cost\n"
        assert run_rule("FLT001", src, path="tests/core/test_x.py") == []


class TestDet001:
    def test_fires_on_legacy_numpy_global(self):
        src = "import numpy as np\nx = np.random.rand(4)\n"
        findings = run_rule("DET001", src)
        assert len(findings) == 1
        assert "global RNG" in findings[0].message

    def test_fires_on_unseeded_default_rng(self):
        src = "import numpy as np\nrng = np.random.default_rng()\n"
        assert len(run_rule("DET001", src)) == 1

    def test_fires_on_stdlib_random(self):
        assert len(run_rule("DET001", "import random\nx = random.random()\n")) == 1

    def test_fires_on_unseeded_random_Random(self):
        assert len(run_rule("DET001", "import random\nr = random.Random()\n")) == 1

    def test_quiet_on_seeded_generator(self):
        src = (
            "import numpy as np\n"
            "rng = np.random.default_rng(7)\n"
            "x = rng.choice([1, 2, 3])\n"
            "r2 = np.random.default_rng(seed=11)\n"
        )
        assert run_rule("DET001", src) == []

    def test_quiet_in_test_files(self):
        src = "import numpy as np\nrng = np.random.default_rng()\n"
        assert run_rule("DET001", src, path="tests/test_probe.py") == []
        assert run_rule("DET001", src, path="pkg/test_thing.py") == []

    def test_annotations_not_flagged(self):
        src = (
            "import numpy as np\n"
            "def f(rng: np.random.Generator) -> None:\n"
            "    pass\n"
        )
        assert run_rule("DET001", src) == []

    def test_fires_on_time_derived_seed(self):
        src = (
            "import time\n"
            "import numpy as np\n"
            "rng = np.random.default_rng(time.time_ns())\n"
        )
        findings = run_rule("DET001", src)
        assert len(findings) == 1
        assert "time.time_ns" in findings[0].message

    def test_fires_on_pid_derived_seed(self):
        # A derived expression still counts: the pid is the entropy.
        src = (
            "import os\n"
            "import random\n"
            "r = random.Random(os.getpid() % 2**31)\n"
        )
        findings = run_rule("DET001", src)
        assert len(findings) == 1
        assert "os.getpid" in findings[0].message

    # Where an unseeded generator runs does not change the finding: a
    # Process target or a pool task gets the same message as any caller.
    _UNSEEDED_NP = (
        "np.random.default_rng() without a seed is unreproducible; "
        "pass an explicit seed"
    )
    _STDLIB_GLOBAL = (
        "random.random() uses the stdlib's hidden global RNG; "
        "use a seeded np.random.Generator instead"
    )

    def test_worker_entry_point_gets_worker_message(self):
        src = (
            "import multiprocessing\n"
            "import numpy as np\n"
            "\n"
            "def worker_main(sock):\n"
            "    rng = np.random.default_rng()\n"
            "    return rng\n"
            "\n"
            "def spawn():\n"
            "    p = multiprocessing.Process(target=worker_main, args=(1,))\n"
            "    p.start()\n"
        )
        findings = run_rule("DET001", src)
        assert [f.message for f in findings] == [self._UNSEEDED_NP]

    def test_pool_task_gets_pool_message(self):
        src = (
            "import numpy as np\n"
            "\n"
            "def eval_chunk(span):\n"
            "    rng = np.random.default_rng()\n"
            "    return rng.random(span)\n"
            "\n"
            "def fan_out(pool, spans):\n"
            "    return pool.map(eval_chunk, spans)\n"
        )
        findings = run_rule("DET001", src)
        assert [f.message for f in findings] == [self._UNSEEDED_NP]

    def test_executor_submit_counts_as_pool_dispatch(self):
        src = (
            "import random\n"
            "\n"
            "def job():\n"
            "    return random.random()\n"
            "\n"
            "def run(executor):\n"
            "    return executor.submit(job)\n"
        )
        findings = run_rule("DET001", src)
        assert [f.message for f in findings] == [self._STDLIB_GLOBAL]

    def test_process_target_wins_over_pool_dispatch(self):
        # Claimed by both idioms, the call is still reported once.
        src = (
            "import multiprocessing\n"
            "import numpy as np\n"
            "\n"
            "def worker_main(sock):\n"
            "    rng = np.random.default_rng()\n"
            "    return rng\n"
            "\n"
            "def spawn(pool):\n"
            "    p = multiprocessing.Process(target=worker_main, args=(1,))\n"
            "    pool.submit(worker_main)\n"
            "    p.start()\n"
        )
        findings = run_rule("DET001", src)
        assert [f.message for f in findings] == [self._UNSEEDED_NP]

    def test_seeded_worker_entry_point_is_quiet(self):
        src = (
            "import multiprocessing\n"
            "import numpy as np\n"
            "\n"
            "def worker_main(sock, seed):\n"
            "    rng = np.random.default_rng(seed)\n"
            "    return rng\n"
            "\n"
            "def spawn():\n"
            "    p = multiprocessing.Process(target=worker_main, args=(1, 7))\n"
            "    p.start()\n"
        )
        assert run_rule("DET001", src) == []

    def test_builtin_map_is_not_pool_dispatch(self):
        # map(fn, xs) is a plain Name call — fn runs on the caller's
        # thread, so the finding keeps the generic message.
        src = (
            "import numpy as np\n"
            "\n"
            "def scale(x):\n"
            "    rng = np.random.default_rng()\n"
            "    return rng.random() * x\n"
            "\n"
            "def run(xs):\n"
            "    return list(map(scale, xs))\n"
        )
        findings = run_rule("DET001", src)
        assert len(findings) == 1
        assert "pool task" not in findings[0].message

    def test_seeded_pool_task_is_quiet(self):
        src = (
            "import numpy as np\n"
            "\n"
            "def eval_chunk(seed, chunk_index):\n"
            "    rng = np.random.default_rng([seed, chunk_index])\n"
            "    return rng.random()\n"
            "\n"
            "def fan_out(pool, seed, n):\n"
            "    return pool.map(eval_chunk, [(seed, i) for i in range(n)])\n"
        )
        assert run_rule("DET001", src) == []


class TestDist001:
    def test_fires_on_internal_mutation(self):
        findings = run_rule("DIST001", "dist._probs[0] = 0.5\n")
        assert len(findings) == 1
        assert "_probs" in findings[0].message

    def test_fires_on_internal_read(self):
        findings = run_rule("DIST001", "v = dist._values\n")
        assert len(findings) == 1
        assert "reading" in findings[0].message

    def test_fires_on_setattr_smuggling(self):
        src = "object.__setattr__(dist, '_values', new_vals)\n"
        assert len(run_rule("DIST001", src)) == 1

    def test_quiet_on_public_api(self):
        src = (
            "v = dist.values\n"
            "p = dist.probs\n"
            "s = dist.support()\n"
            "d2 = dist.scale(2.0)\n"
        )
        assert run_rule("DIST001", src) == []

    def test_defining_module_is_exempt(self):
        src = """
            class DiscreteDistribution:
                def __init__(self, values, probs):
                    self._values = values
                    self._probs = probs
            """
        assert run_rule("DIST001", src) == []


class TestPlan001:
    def test_fires_on_raw_join_construction(self):
        src = """
            from repro.plans.nodes import Join

            def glue(left, right, method, label):
                return Join(left=left, right=right, method=method,
                            predicate_label=label)
            """
        findings = run_rule("PLAN001", src)
        assert len(findings) == 1
        assert "PlanSpace.join" in findings[0].message

    def test_fires_on_shape_frozen_enumerator(self):
        src = """
            import itertools

            def enumerate_zigzag_plans(query, methods):
                for perm in itertools.permutations(query.relation_names()):
                    yield perm
            """
        findings = run_rule("PLAN001", src)
        assert len(findings) == 1
        assert "enumerate_zigzag_plans" in findings[0].message

    def test_quiet_when_module_routes_through_planspace(self):
        src = """
            from repro.plans.nodes import Join
            from repro.plans.space import PlanSpace

            def glue(space, left, right, method, label):
                return space.join(left=left, right=right, method=method,
                                  predicate_label=label)

            def rebuild(doc):
                return Join(left=doc["l"], right=doc["r"],
                            method=doc["m"], predicate_label=doc["p"])
            """
        assert run_rule("PLAN001", src) == []

    def test_quiet_on_space_parameterized_enumerator(self):
        src = """
            def enumerate_plans(query, methods, space, enforce_order=True):
                yield from space.partitions(frozenset(query))
            """
        assert run_rule("PLAN001", src) == []

    def test_plans_package_is_exempt(self):
        src = """
            def make(left, right, method):
                return Join(left=left, right=right, method=method,
                            predicate_label="p")
            """
        assert run_rule("PLAN001", src, path="src/repro/plans/space.py") == []

    def test_test_files_are_exempt(self):
        src = "j = Join(left=a, right=b, method=m, predicate_label='p')\n"
        assert run_rule("PLAN001", src, path="tests/test_probe.py") == []


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
