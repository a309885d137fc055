"""Benchmark of the DINAR reproduction (see run.py)."""
