"""Shared helpers for the micro-benchmarks.

What lives here times one layer in isolation (the expected-cost kernel,
the context cache, the serving and cluster tiers); the paper's claims
are asserted in ``tests/experiments/test_claims.py`` and the end-to-end
numbers are ``bench/run.py``'s.

A benchmark can publish a machine-readable snapshot: anything passed to
:func:`record_snapshot` is written to ``benchmarks/BENCH_<name>.json``
at session end (the kernel gate's ``BENCH_kernel.json``, which CI's
``bench-kernel`` job uploads).
"""

from __future__ import annotations

import json
import os
from typing import Dict

import pytest

#: snapshot name -> JSON-ready payload, flushed in pytest_sessionfinish.
_SNAPSHOTS: Dict[str, dict] = {}


def pytest_addoption(parser):
    parser.addoption(
        "--quick",
        action="store_true",
        default=False,
        help="shrink benchmark workloads (CI's bench-kernel job); "
        "speedup gates still apply, wall-clock shrinks",
    )


@pytest.fixture(scope="session")
def quick_mode(request) -> bool:
    """True when the session runs with ``--quick``."""
    return bool(request.config.getoption("--quick"))


def record_snapshot(name: str, payload: dict) -> None:
    """Register a payload to be written to ``BENCH_<name>.json``."""
    _SNAPSHOTS[name] = payload


def pytest_sessionfinish(session, exitstatus):
    here = os.path.dirname(__file__)
    for name, payload in _SNAPSHOTS.items():
        path = os.path.join(here, f"BENCH_{name}.json")
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(payload, fh, indent=2, sort_keys=True)
            fh.write("\n")
