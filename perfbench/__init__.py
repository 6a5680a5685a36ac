"""Benchmark of the FreeBS/FreeRS reproduction; entry point ``perfbench/run.py``."""
