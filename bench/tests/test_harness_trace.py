import inspect
import sys
import time
import types

import pytest

from bench.trace import TABLE, Tracer, self_times


def test_self_time_subtracts_direct_children_only():
    # root 0..100 has children a 10..40 and b 50..90; a has child c 20..30.
    spans = [
        {"id": 1, "start": 0, "end": 100, "parent": None},
        {"id": 2, "start": 10, "end": 40, "parent": 1},
        {"id": 3, "start": 50, "end": 90, "parent": 1},
        {"id": 4, "start": 20, "end": 30, "parent": 2},
    ]
    own = self_times(spans)
    assert own == {1: 30, 2: 20, 3: 40, 4: 10}
    assert sum(own.values()) == 100  # self times partition the root


@pytest.fixture
def toy_module():
    module = types.ModuleType("repro._bench_toy")

    def leaf():
        time.sleep(0.002)

    def parent():
        time.sleep(0.002)
        module.leaf()
        module.leaf()

    def numbers(n):
        for i in range(n):
            time.sleep(0.001)
            yield i

    class Thing:
        def method(self):
            module.leaf()
            return "done"

    module.leaf, module.parent, module.numbers, module.Thing = (
        leaf, parent, numbers, Thing,
    )
    sys.modules[module.__name__] = module
    yield module
    del sys.modules[module.__name__]


def test_accumulators_spans_and_generators_share_one_stack(toy_module):
    table = {
        "toy.leaf": (("repro._bench_toy.leaf", "acc"),),
        "toy.parent": (("repro._bench_toy.parent", "span"),
                       ("repro._bench_toy.Thing.method", "span")),
        "toy.gen": (("repro._bench_toy.numbers", "gen"),),
    }
    originals = (toy_module.leaf, toy_module.parent, toy_module.Thing.method)
    tracer = Tracer(table)
    with tracer:
        assert toy_module.leaf is not originals[0]
        toy_module.parent()
        assert toy_module.Thing().method() == "done"
        assert list(toy_module.numbers(3)) == [0, 1, 2]
    assert (toy_module.leaf, toy_module.parent, toy_module.Thing.method) == originals

    assert tracer.calls("repro._bench_toy.leaf") == 3
    assert tracer.calls("repro._bench_toy.numbers") == 1
    parent_total = tracer.total_ns("repro._bench_toy.parent")
    parent_self = tracer.self_ns("repro._bench_toy.parent")
    # Two of the three leaf calls ran under parent(): its self time is its
    # own sleep, not theirs.
    assert 1.5e6 < parent_self < parent_total - 3.5e6
    assert tracer.total_ns("repro._bench_toy.numbers") >= 3e6
    total_self = sum(tracer.layer_self_ns(layer) for layer in table)
    assert total_self == tracer.root_ns["MainThread"]

    by_name = {}
    for _sid, name, start, end, parent, _op, _thread in tracer.spans:
        by_name.setdefault(name, []).append((start, end, parent))
    assert len(by_name["repro._bench_toy.parent"]) == 1
    assert by_name["repro._bench_toy.parent"][0][2] is None


def _resolve_all():
    for entries in TABLE.values():
        for dotted, _kind in entries:
            owner, attr = Tracer._resolve(dotted)
            yield dotted, owner, attr, inspect.getattr_static(owner, attr)


def test_tracer_restores_every_wrapped_callable():
    import repro
    import repro.serving.service as service

    before = list(_resolve_all())
    facade_optimize = repro.optimize
    tracer = Tracer().install()
    try:
        assert repro.optimize is not facade_optimize
        # The service's private alias of the same function is rebound too.
        assert service._optimize is repro.optimize
        for dotted, owner, attr, original in before:
            assert inspect.getattr_static(owner, attr) is not original, dotted
    finally:
        tracer.uninstall()
    assert repro.optimize is facade_optimize
    assert service._optimize is facade_optimize
    for dotted, owner, attr, original in before:
        assert inspect.getattr_static(owner, attr) is original, dotted
    assert not tracer.installed


def test_untraced_measurement_never_touches_the_tracer():
    from bench import harness
    from bench.workloads import build

    before = [original for *_rest, original in _resolve_all()]
    workload = build("dp_small", seed=3, scale=0.02)
    runner = harness.make_runner(workload)
    segments, tracer = harness.measure(workload, runner, 0.0, 1, None)
    assert tracer is None
    assert len(segments) == 1 and not segments[0].traced
    assert [original for *_rest, original in _resolve_all()] == before
    assert Tracer().stats == {}  # building one changes nothing either


def test_an_inherited_method_is_refused():
    table = {"x": (("repro.optimizer.costers.PointCoster.access_cost", "acc"),)}
    tracer = Tracer(table)
    with pytest.raises(AttributeError):
        tracer.install()
    tracer.uninstall()
