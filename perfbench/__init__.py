"""Benchmark of finslerflow; run ``python3 perfbench/run.py`` from the repository root."""
