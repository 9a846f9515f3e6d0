"""Benchmark for the framefree package; see README.md."""
