"""Benchmark of dualris: workloads, exact oracle, tracing and per-layer metrics.

Run it with ``python3 perfbench/run.py --help`` from the repository root.
"""
