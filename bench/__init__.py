"""Benchmark harness for almsim: workloads, checks, tracer and entry point."""
