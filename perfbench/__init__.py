"""Benchmark for riot_ray: see README.md."""
