"""The perf ledger: five named workloads, end-to-end + per-layer metrics.

Run with ``python -m benchmarks.ledger`` from the repository root (see
README.md in this directory).  Everything here measures the simulator from
outside: it times calls into public functions and reads ``sim.metrics`` /
``coordination_stats()`` counters; nothing under ``src/`` reads a clock.
"""
