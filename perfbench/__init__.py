"""Benchmark for progtab; run it with ``python3 perfbench/run.py``."""
