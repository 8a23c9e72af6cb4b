"""Benchmark harness for the rbs command line: workloads, tracing, statistics."""
