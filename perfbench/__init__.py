"""Benchmark of the starcayley verifier; run it as ``python3 perfbench/run.py``."""
