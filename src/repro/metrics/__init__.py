"""Instrumentation: counters, observation series, and the observation facade.

The paper's measurable claims are structural -- message counts, objects
scanned, outset unions, storage units -- so the whole library reports through
one :class:`MetricsRecorder` that benchmarks read after a run.

This package is also the single facade over the three observation surfaces
that used to live apart:

- **counters** -- :class:`MetricsRecorder` and :func:`counter_diff`
  (prefix helpers + before/after deltas in one call);
- **counter names** -- :mod:`repro.metrics.names`, module-level constants so
  callers stop passing drifting string literals;
- **graph state** -- :func:`graph_snapshot` / :func:`graph_diff`, re-exported
  from :mod:`repro.analysis.export`.
"""

from __future__ import annotations

from typing import Any, Dict, Union

from . import names
from .counters import (
    CounterCell,
    MetricsRecorder,
    Snapshot,
)


def counter_diff(
    after: Union[MetricsRecorder, Snapshot],
    before: Snapshot,
    prefix: str = "",
) -> Dict[str, int]:
    """Non-zero counter deltas since ``before``, optionally prefix-filtered."""
    if isinstance(after, MetricsRecorder):
        after = after.snapshot()
    deltas = after.diff(before)
    if prefix:
        deltas = {
            name: value for name, value in deltas.items() if name.startswith(prefix)
        }
    return deltas


def graph_snapshot(sim) -> Dict[str, Any]:
    """JSON-able dump of every site's heap and ioref tables (see
    :func:`repro.analysis.export.graph_snapshot`)."""
    from ..analysis.export import graph_snapshot as _impl

    return _impl(sim)


def graph_diff(before: Dict[str, Any], after: Dict[str, Any]) -> Dict[str, Any]:
    """What changed between two :func:`graph_snapshot` dumps."""
    from ..analysis.export import graph_diff as _impl

    return _impl(before, after)


__all__ = [
    "CounterCell",
    "MetricsRecorder",
    "Snapshot",
    "names",
    "counter_diff",
    "graph_snapshot",
    "graph_diff",
]
