"""Benchmark harness for rvqtok; run it as ``python3 perfbench/run.py``."""
