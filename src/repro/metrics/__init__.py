"""Instrumentation: counters and their names.

The paper's measurable claims are structural -- message counts, objects
scanned, outset unions, storage units -- so the whole library reports through
one :class:`MetricsRecorder` that benchmarks read after a run:

- **counters** -- :class:`MetricsRecorder` (prefix helpers, and
  :meth:`Snapshot.diff` for before/after deltas);
- **counter names** -- :mod:`repro.metrics.names`, module-level constants so
  callers stop passing drifting string literals.

Graph state lives in :mod:`repro.analysis` (``graph_snapshot`` /
``graph_diff``).
"""

from __future__ import annotations

from . import names
from .counters import (
    CounterCell,
    MetricsRecorder,
    Snapshot,
)

__all__ = [
    "CounterCell",
    "MetricsRecorder",
    "Snapshot",
    "names",
]
