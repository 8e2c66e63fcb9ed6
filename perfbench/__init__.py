"""Benchmark of majorana-pt; see README.md and run.py."""
