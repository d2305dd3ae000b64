"""Benchmark of the repro package: seeded workloads, end-to-end and
per-layer metrics.  Run ``python3 perfbench/run.py --help``."""
