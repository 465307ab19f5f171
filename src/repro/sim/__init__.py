"""Deterministic discrete-event simulation kernel.

The kernel is deliberately tiny: a single priority queue of timed callbacks
(:class:`Scheduler`), named seeded random streams (:class:`RngRegistry`), and
a :class:`Simulation` object that wires the scheduler to a network and a set
of sites.  Every run is a pure function of its seed and the registered event
handlers, which makes experiments replayable and test failures minimizable.
"""

from .scheduler import EventHandle, Scheduler
from .rng import RngRegistry
from .simulation import Simulation


def __getattr__(name):
    # The sharded engine loads on first use (see the package root).
    if name in ("ParallelSimulation", "assign_shards"):
        from . import parallel

        return getattr(parallel, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


__all__ = [
    "EventHandle",
    "Scheduler",
    "RngRegistry",
    "Simulation",
    "ParallelSimulation",
    "assign_shards",
]
