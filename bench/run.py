#!/usr/bin/env python3
"""The benchmark's one command.

``python3 bench/run.py --seed 11``
    every workload, each in a fresh interpreter: an untraced run for the
    end-to-end metrics, then a traced run for the per-layer ledger; every
    metric printed by name with its unit; ``bench/results/latest.json``
    written; non-zero exit if any answer check fails.
``python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1``
    one run of one workload (what the driver calls); the last line of
    standard output is one JSON object — ``correct``, ``attempted``,
    ``failed``, ``metrics``.
``python3 bench/run.py --smoke``
    every workload at 1/50 size with all checks and no numbers (< 30 s).
``python3 bench/run.py --compare A.json B.json``
    two result files side by side, with a verdict per metric.
``python3 bench/run.py --baseline R1.json R2.json ...``
    run-to-run spreads of >= 2 result files, written to
    ``bench/BASELINE.json`` together with the first file's numbers.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path
from typing import Any, Dict, List, Optional, Sequence

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent

if __name__ == "__main__":
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        sys.exit("bench/run.py: src/repro not found next to bench/; "
                 "run it from a checkout of the repository")
    # Run as a script, sys.path[0] is bench/ itself, which would shadow the
    # standard library's ``trace``.  Replace it by the checkout and src/.
    sys.path[0:1] = [str(ROOT), str(ROOT / "src")]

from bench.metrics import END_TO_END, PER_LAYER, PER_LAYER_UNITS, WORKLOADS  # noqa: E402

RESULTS_DIR = BENCH_DIR / "results"
DEFAULT_SECONDS = 10
#: A (host-normalised) segment outside this window means the op lists no
#: longer fit: too short to time, or too few segments fit a run.
SEGMENT_WINDOW_S = (0.4, 4.0)
SMOKE_SCALE = 0.02
BOUND_FLOOR, BOUND_CAP = 0.10, 0.25
_EPILOGUE_QUERIES = 32


# ----------------------------------------------------------------------
# One run of one workload
# ----------------------------------------------------------------------


def run_workload(name: str, seed: int, seconds: float, trace: bool,
                 smoke: bool = False) -> Dict[str, Any]:
    """Set up, measure, check; returns the detail record of the run."""
    from bench import check, harness, ledger
    from bench.trace import Tracer
    from bench.workloads import build

    host = harness.host_record()
    phases: Dict[str, float] = {}
    clock = [time.perf_counter()]

    def phase(label: str) -> None:
        now = time.perf_counter()
        phases[label] = now - clock[0]
        clock[0] = now

    workload = build(name, seed, SMOKE_SCALE if smoke else 1.0)
    phase("generate_s")
    runner, setup = harness.setup_cycles(
        workload, ROOT, 1 if smoke else workload.setup_cycles
    )
    phase("setup_s")
    extra: Dict[str, Any] = {}
    epilogue: List[Any] = []
    try:
        reference = (
            None if workload.family == "library" else check.references(workload)
        )
        phase("references_s")
        segments, tracer = harness.measure(
            workload, runner, 0.0 if smoke else seconds,
            1 if smoke else harness.MIN_SEGMENTS, Tracer if trace else None,
        )
        phase("measure_s")
        if workload.family == "service":
            extra["cache_stats"] = runner.service.cache.stats()
            if trace:
                with Tracer() as extra["miss_tracer"]:
                    epilogue = runner.miss_path(_EPILOGUE_QUERIES)
                extra["miss_results"] = epilogue
        if workload.family == "cluster":
            extra["snapshot"] = runner.snapshot()
        rss_mb = harness.peak_rss_mb()
    finally:
        runner.stop()
    phase("epilogue_and_stop_s")

    if workload.family == "library":
        verdict = check.check_library(workload, segments)
    else:
        verdict = check.check_served(workload, segments, reference, runner.plans)
    phase("checks_s")
    attempted = sum(s.n for s in segments) + len(epilogue)
    failed = verdict.failed
    for q, result in enumerate(epilogue):
        if (result.cache_hit or result.rung != "full"
                or not check.close(result.objective_value, reference[q])):
            failed += 1
            verdict.reasons.append(f"epilogue query {q}: wrong, degraded or stale")

    detail: Dict[str, Any] = {
        "workload": name, "why": workload.why, "seed": seed, "trace": int(trace),
        "oplist_sha1": workload.oplist_sha1, "host": host,
        "clients": workload.clients, "segment_ops": workload.segment_ops,
        "phases": phases, "setup_cycles": setup,
        "segment_s": [s.wall for s in segments],
        "host_factor": [harness.host_factor(s.probes) for s in segments],
        "attempted": attempted, "failed": failed,
        "failed_share": failed / attempted,
        "reasons": verdict.reasons + runner.errors,
    }
    untraced = [s for s in segments if not s.traced]
    bad = [verdict.bad[k] for k, s in enumerate(segments) if not s.traced]
    detail["end_to_end"] = harness.end_to_end(untraced, bad, setup, rss_mb)
    lo, hi = SEGMENT_WINDOW_S
    detail["segments_in_window"] = all(
        lo <= s.wall / harness.host_factor(s.probes) <= hi for s in untraced
    )
    if trace:
        detail["per_layer"] = ledger.per_layer(workload, segments, tracer, runner, extra)
        RESULTS_DIR.mkdir(exist_ok=True)
        tracer.write_spans(RESULTS_DIR / f"trace-{name}.jsonl")
    return detail


def final_line(detail: Dict[str, Any]) -> str:
    """The driver's contract: one JSON object, exactly these four keys."""
    if detail["trace"]:
        metrics = {
            name: {"value": value, "unit": PER_LAYER_UNITS[name]}
            for name, value in detail["per_layer"].items()
        }
    else:
        metrics = {
            m.name: {"value": detail["end_to_end"][m.name]["value"], "unit": m.unit}
            for m in END_TO_END
        }
    return json.dumps({
        "correct": detail["failed"] == 0,
        "attempted": detail["attempted"],
        "failed": detail["failed"],
        "metrics": metrics,
    })


def _single(args) -> int:
    # Hash randomisation changes set iteration order, and with it which
    # of two equal-cost plans wins; pin it for this process (by re-exec)
    # and for every child it spawns.
    if os.environ.get("PYTHONHASHSEED") != "0":
        os.environ["PYTHONHASHSEED"] = "0"
        os.execv(sys.executable, [sys.executable] + sys.argv)
    detail = run_workload(args.workload, args.seed, args.seconds,
                          bool(args.trace), smoke=args.smoke)
    RESULTS_DIR.mkdir(exist_ok=True)
    path = RESULTS_DIR / f"{args.workload}-trace{args.trace}.json"
    path.write_text(json.dumps(detail, indent=1) + "\n", encoding="utf-8")
    for reason in detail["reasons"]:
        print(f"check failed: {reason}", file=sys.stderr)
    if args.smoke:
        print(f"{args.workload}: {detail['attempted']} ops, "
              f"{detail['failed']} failed")
        return 1 if detail["failed"] else 0
    print(final_line(detail))
    return 0


# ----------------------------------------------------------------------
# The whole benchmark
# ----------------------------------------------------------------------


def _child(workload: str, seed: int, seconds: int, trace: int,
           smoke: bool) -> Optional[Dict[str, Any]]:
    cmd = [sys.executable, str(BENCH_DIR / "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
    if smoke:
        cmd.append("--smoke")
    env = dict(os.environ, PYTHONHASHSEED="0")
    done = subprocess.run(cmd, cwd=str(ROOT), env=env, stdout=subprocess.PIPE,
                          text=True)
    if smoke:
        print(done.stdout.strip())
    path = RESULTS_DIR / f"{workload}-trace{trace}.json"
    if done.returncode != 0 and not smoke or not path.is_file():
        print(f"{workload} (trace {trace}) exited with {done.returncode}",
              file=sys.stderr)
        return None
    return json.loads(path.read_text(encoding="utf-8"))


def _print_workload(name: str, record: Dict[str, Any]) -> None:
    print(f"\n== {name}  ({record['attempted']} ops, failed_share "
          f"{record['failed_share']:.6f}, oplist {record['oplist_sha1'][:12]})")
    for metric in END_TO_END:
        entry = record["end_to_end"][metric.name]
        print(f"  {metric.name:<44} {entry['value']:>14.4f} {metric.unit:<6}"
              f" spread {entry['spread']:.3f}")
    zeros = 0
    for metric in PER_LAYER:
        value = record["per_layer"][metric.name]
        if value:
            print(f"  {metric.name:<44} {value:>14.4f} {metric.unit}")
        else:
            zeros += 1
    print(f"  ({zeros} per-layer metrics read 0 here: off this workload's path)")


def _all(args) -> int:
    if args.smoke:
        failed = 0
        for name in WORKLOADS:
            detail = _child(name, args.seed, 0, 1, smoke=True)
            failed += 1 if detail is None or detail["failed"] else 0
        print("smoke: " + ("FAILED" if failed else "ok"))
        return 1 if failed else 0

    cpus = os.cpu_count() or 1
    if cpus < 2:
        print(f"refusing to record numbers: {cpus} CPU, the cluster "
              "workloads need 2 (2 shards, 2 clients)", file=sys.stderr)
        return 3
    out: Dict[str, Any] = {"schema": 1, "seed": args.seed,
                           "run_seconds": args.seconds, "workloads": {}}
    status = 0
    for name in WORKLOADS:
        plain = _child(name, args.seed, args.seconds, 0, smoke=False)
        traced = _child(name, args.seed, args.seconds, 1, smoke=False)
        if plain is None or traced is None:
            return 1
        record = dict(plain)
        record["per_layer"] = traced["per_layer"]
        record["attempted"] += traced["attempted"]
        record["failed"] += traced["failed"]
        record["failed_share"] = record["failed"] / record["attempted"]
        record["reasons"] = plain["reasons"] + traced["reasons"]
        record["traced_oplist_sha1"] = traced["oplist_sha1"]
        out.setdefault("host", plain["host"])
        out["workloads"][name] = record
        _print_workload(name, record)
        if record["failed"]:
            status = 1
        if not plain["segments_in_window"]:
            print(f"{name}: segments took {plain['segment_s']} s at host "
                  f"factors {plain['host_factor']}, outside {SEGMENT_WINDOW_S} "
                  "once normalised; the op-list sizes need re-tuning",
                  file=sys.stderr)
            status = status or 3
    if status == 3:
        print("refusing to record numbers (see above)", file=sys.stderr)
        return status
    RESULTS_DIR.mkdir(exist_ok=True)
    target = Path(args.out) if args.out else RESULTS_DIR / "latest.json"
    target.write_text(json.dumps(out, indent=1) + "\n", encoding="utf-8")
    print(f"\nwrote {target}" + ("" if status == 0 else "  (CHECKS FAILED)"))
    return status


# ----------------------------------------------------------------------
# Comparing two result files; recording a baseline
# ----------------------------------------------------------------------


def _load(path: str) -> Dict[str, Any]:
    return json.loads(Path(path).read_text(encoding="utf-8"))


def _bounds() -> Dict[str, float]:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    return {m["name"]: float(m["bound"]) for m in spec["end_to_end"]}


def verdict_of(better: str, a: Dict[str, Any], b: Dict[str, Any],
               bound: float) -> str:
    """``ok`` / ``worse`` / ``unresolved`` for one metric, A the base.

    ``worse``: B is worse than A by more than the bound.  When either
    side's own segments spread wider than the bound the comparison cannot
    tell, and says ``unresolved`` — unless every segment of B is better
    than every segment of A.
    """
    sign = 1.0 if better == "lower" else -1.0
    worse_by = sign * (b["value"] - a["value"]) / a["value"]
    if max(a["spread"], b["spread"]) > bound:
        if better == "lower":
            clear = max(b["segments"]) < min(a["segments"])
        else:
            clear = min(b["segments"]) > max(a["segments"])
        return "ok" if clear else "unresolved"
    return "worse" if worse_by > bound else "ok"


def _compare(path_a: str, path_b: str) -> int:
    a, b = _load(path_a), _load(path_b)
    bounds = _bounds()
    worse = 0
    print(f"A = {path_a}\nB = {path_b}")
    for name in WORKLOADS:
        wa, wb = a["workloads"].get(name), b["workloads"].get(name)
        if wa is None or wb is None:
            continue
        same = "same" if wa["oplist_sha1"] == wb["oplist_sha1"] else "DIFFERENT"
        print(f"\n== {name}  (op lists {same}; failed_share "
              f"{wa['failed_share']:.6f} -> {wb['failed_share']:.6f})")
        for metric in END_TO_END:
            ea, eb = wa["end_to_end"][metric.name], wb["end_to_end"][metric.name]
            verdict = verdict_of(metric.better, ea, eb, bounds[metric.name])
            worse += verdict == "worse"
            print(f"  {metric.name:<18} {ea['value']:>12.4f} -> {eb['value']:>12.4f} "
                  f"{metric.unit:<6} B/A {eb['value'] / ea['value']:.3f} of "
                  f"{ea['value']:.4f}  bound {bounds[metric.name]:.2f}  {verdict}")
        if wb["failed"] > wa["failed"]:
            worse += 1
            print("  failed_share       worse (its bound is 0)")
    return 1 if worse else 0


def _baseline(paths: Sequence[str]) -> int:
    """Spreads across whole runs; the bounds the issue's rule implies from
    them (``max(floor, 1.5 x worst spread)``, capped); the latest numbers."""
    runs = [_load(p) for p in paths]
    if len(runs) < 2:
        print("--baseline needs at least two result files", file=sys.stderr)
        return 2
    from bench.stats import spread

    doc: Dict[str, Any] = {
        "seed": runs[0]["seed"], "host": runs[0]["host"], "runs": len(runs),
        "run_seconds": runs[0]["run_seconds"], "workloads": {}, "bounds": {},
    }
    worst: Dict[str, float] = {m.name: 0.0 for m in END_TO_END}
    for name in WORKLOADS:
        records = [r["workloads"][name] for r in runs]
        entry: Dict[str, Any] = {
            "why": records[0]["why"],
            "oplist_sha1": records[0]["oplist_sha1"],
            "failed_share": max(r["failed_share"] for r in records),
            "end_to_end": {}, "per_layer": records[0]["per_layer"],
        }
        for metric in END_TO_END:
            values = [r["end_to_end"][metric.name]["value"] for r in records]
            entry["end_to_end"][metric.name] = {
                "latest": values[0], "median": statistics.median(values),
                "unit": metric.unit, "runs": values,
                "run_spread": spread(values),
            }
            worst[metric.name] = max(worst[metric.name], spread(values))
        doc["workloads"][name] = entry
    for metric in END_TO_END:
        wanted = max(BOUND_FLOOR, 1.5 * worst[metric.name])
        doc["bounds"][metric.name] = {
            "worst_run_spread": worst[metric.name],
            "rule_bound": min(BOUND_CAP, round(wanted, 2)),
            "over_cap": wanted > BOUND_CAP,
        }
    target = BENCH_DIR / "BASELINE.json"
    target.write_text(json.dumps(doc, indent=1) + "\n", encoding="utf-8")
    print(f"wrote {target}")
    return 0


# ----------------------------------------------------------------------


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = argparse.ArgumentParser(prog="bench/run.py", description=__doc__,
                                     formatter_class=argparse.RawTextHelpFormatter)
    parser.add_argument("--workload", choices=WORKLOADS,
                        help="run this one workload and print one JSON line")
    parser.add_argument("--seed", type=int, default=11)
    parser.add_argument("--seconds", type=int, default=DEFAULT_SECONDS,
                        help="how long one run measures")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="1/50 size, all checks, no numbers")
    parser.add_argument("--out", help="where the full run writes its result "
                        "(default bench/results/latest.json)")
    parser.add_argument("--compare", nargs=2, metavar=("A.json", "B.json"))
    parser.add_argument("--baseline", nargs="+", metavar="RESULT.json")
    args = parser.parse_args(argv)
    if args.compare:
        return _compare(*args.compare)
    if args.baseline:
        return _baseline(args.baseline)
    if args.workload:
        return _single(args)
    return _all(args)


if __name__ == "__main__":
    sys.exit(main())
