"""Experiment harness: figure scenarios, the case runner behind the chaos and
differential matrices and ``repro replay``, and report formatting."""
