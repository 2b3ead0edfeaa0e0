"""Benchmark harness for retroking: workloads, output checks and span tracing.

Run it from the repository root with ``python3 perfbench/run.py --help``.
"""
