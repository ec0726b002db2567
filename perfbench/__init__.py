"""Benchmark of the Dynamic HHJ reproduction; entry point is ``run.py``."""
