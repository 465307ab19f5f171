"""Analysis of a running simulation: ground-truth oracle + event logging."""

from .oracle import Oracle
from .tracelog import Event, TraceLog
from .export import graph_diff, graph_snapshot, to_dot

__all__ = [
    "Oracle",
    "TraceLog",
    "Event",
    "graph_snapshot",
    "graph_diff",
    "to_dot",
]
