"""``/BENCHMARK.json`` against the builder's contract and ``bench.metrics``."""

import json
import re
from pathlib import Path

from bench.metrics import END_TO_END, PER_LAYER, WORKLOADS
from bench.workloads import WHY

ROOT = Path(__file__).resolve().parents[2]
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.\-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.\-]{1,16}$")


def test_exactly_the_contract_keys():
    assert set(SPEC) == {"command", "paths", "run_seconds", "workloads",
                         "end_to_end", "per_layer"}
    assert SPEC["paths"] == ["bench"]
    assert SPEC["command"][:2] == ["python3", "bench/run.py"]
    assert 1 <= SPEC["run_seconds"] <= 60
    runs = 4 + 22 * len(SPEC["workloads"])
    assert runs * SPEC["run_seconds"] < 3420


def test_workloads_match_the_harness():
    assert [w["name"] for w in SPEC["workloads"]] == list(WORKLOADS)
    for workload in SPEC["workloads"]:
        assert set(workload) == {"name", "why"}
        assert workload["why"] == WHY[workload["name"]]
        assert len(workload["why"]) <= 200 and "\n" not in workload["why"]


def test_end_to_end_metrics_match_and_are_bounded():
    assert [(m["name"], m["unit"], m["better"]) for m in SPEC["end_to_end"]] == [
        (m.name, m.unit, m.better) for m in END_TO_END]
    for metric in SPEC["end_to_end"]:
        assert set(metric) == {"name", "unit", "better", "bound"}
        assert 0 < metric["bound"] <= 0.25
    setup = SPEC["end_to_end"][0]
    assert (setup["name"], setup["unit"], setup["better"]) == ("setup_s", "s", "lower")
    assert setup["bound"] == max(m["bound"] for m in SPEC["end_to_end"])


def test_per_layer_metrics_match():
    assert [(m["name"], m["unit"], m["better"]) for m in SPEC["per_layer"]] == [
        (m.name, m.unit, m.better) for m in PER_LAYER]
    assert 1 <= len(SPEC["per_layer"]) <= 128
    for metric in SPEC["per_layer"]:
        assert set(metric) == {"name", "unit", "better"}


def test_names_and_units_are_well_formed_and_unique():
    names = [m["name"] for m in SPEC["end_to_end"] + SPEC["per_layer"]]
    names += [w["name"] for w in SPEC["workloads"]]
    assert len(names) == len(set(names))
    assert all(NAME.match(n) for n in names)
    assert all(UNIT.match(m["unit"])
               for m in SPEC["end_to_end"] + SPEC["per_layer"])
    assert all(m["better"] in ("higher", "lower")
               for m in SPEC["end_to_end"] + SPEC["per_layer"])


def test_every_per_layer_prediction_names_real_things():
    e2e = {m.name for m in END_TO_END}
    for metric in PER_LAYER:
        for moved, workload in metric.moves:
            assert moved in e2e and workload in WORKLOADS, metric.name
