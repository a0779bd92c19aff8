"""Benchmark of roughassim: workloads, per-layer tracer and driver (see README.md)."""
