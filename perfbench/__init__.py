"""Benchmark harness for steklov_cusp; see README.md."""
