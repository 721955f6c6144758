"""The repository's benchmark: one harness for the whole request path.

``python3 bench/run.py`` drives ``repro.optimize``, ``OptimizerService``
and ``ClusterGateway`` through five seeded workloads, checks every
answer, and reports the end-to-end and per-layer metrics declared in
``/BENCHMARK.json``.  See ``bench/README.md``.
"""
