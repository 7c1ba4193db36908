"""Benchmark of the flagship, routed-pipeline and sessionization
workloads; run it with ``python3 perfbench/run.py`` (see run.py)."""
