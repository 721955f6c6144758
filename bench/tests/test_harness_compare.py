from bench.run import final_line, verdict_of


def _entry(value, segments):
    from bench.stats import spread

    return {"value": value, "segments": segments, "spread": spread(segments)}


def test_ok_worse_unresolved():
    base = _entry(10.0, [10.0, 10.2, 10.1])
    assert verdict_of("lower", base, _entry(10.5, [10.5, 10.6, 10.7]), 0.10) == "ok"
    assert verdict_of("lower", base, _entry(11.5, [11.5, 11.6, 11.7]), 0.10) == "worse"
    assert verdict_of("higher", base, _entry(8.5, [8.5, 8.4, 8.3]), 0.10) == "worse"
    assert verdict_of("higher", base, _entry(11.5, [11.5, 11.4]), 0.10) == "ok"
    # Segments spread wider than the bound: the comparison cannot tell ...
    noisy = _entry(10.0, [10.0, 12.5, 11.0])
    assert verdict_of("lower", noisy, _entry(11.5, [11.5, 11.6]), 0.10) == "unresolved"
    # ... unless every segment of B beats every segment of A.
    assert verdict_of("lower", noisy, _entry(8.0, [8.0, 9.5]), 0.10) == "ok"


def test_final_line_has_exactly_the_contract_keys():
    import json

    from bench.metrics import END_TO_END, PER_LAYER

    detail = {
        "trace": 0, "attempted": 10, "failed": 0,
        "end_to_end": {m.name: {"value": 1.5} for m in END_TO_END},
    }
    line = json.loads(final_line(detail))
    assert set(line) == {"correct", "attempted", "failed", "metrics"}
    assert line["correct"] is True
    assert set(line["metrics"]) == {m.name for m in END_TO_END}
    assert line["metrics"]["setup_s"] == {"value": 1.5, "unit": "s"}

    detail = {"trace": 1, "attempted": 10, "failed": 2,
              "per_layer": {m.name: 0.0 for m in PER_LAYER}}
    line = json.loads(final_line(detail))
    assert line["correct"] is False
    assert set(line["metrics"]) == {m.name for m in PER_LAYER}
