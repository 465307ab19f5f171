"""The stable public facade of the reproduction.

Everything an experiment, example, or downstream harness needs is
re-exported here under one import::

    from repro.api import GcConfig, Simulation, SimulationConfig

    config = SimulationConfig(gc=GcConfig(collector="termination"))
    sim = Simulation.create(config)     # selects the engine AND the backend

The facade is the compatibility contract: internals move between modules
(the collector extraction moved the back tracer out of ``Site``; the engine
split moved parallelism out of ``Simulation``), but these names stay.
Guidelines the facade encodes:

- **Construct through** :meth:`Simulation.create`.  It picks the sequential
  or sharded-parallel engine from ``config.parallel_workers`` and resolves
  ``config.gc.collector`` against the backend registry.
- **Select collectors by name.**  ``GcConfig.collector`` accepts any name in
  :func:`available_collectors`: the paper's ``"backtrace"``, the
  termination-detection rival ``"termination"`` (also this tree's trial
  deletion), and ``"null"`` (local tracing only).  New backends plug in via
  :func:`register_collector` without touching ``Site``.  The section 7
  baselines are not backends: construct one from :mod:`repro.baselines`
  directly over a ``"null"`` simulation.
- **Inject faults declaratively** with :class:`FaultPlan` and its window
  types, passed to :meth:`Simulation.create`.
"""

from __future__ import annotations

from .config import GcConfig, NetworkConfig, SimulationConfig
from .errors import ConfigError, ReproError, SimulationError
from .ids import FrameId, ObjectId, SiteId, TraceId

# sim.simulation must come before core.collector: entering the import cycle
# (simulation -> collector -> backtrace -> net -> sim) from the sim side is
# the one order in which every name is defined by the time it is needed.
from .sim.simulation import Simulation
from .sim.parallel import ParallelSimulation
from .core.collector import (
    Collector,
    CollectorSpec,
    available_collectors,
    register_collector,
    resolve_collector,
)
from .net.faults import FaultPlan, LinkFault, PartitionWindow, SiteCrash
from .site.site import Site
from .core.backtrace.messages import TraceOutcome

__all__ = [
    # configuration
    "GcConfig",
    "NetworkConfig",
    "SimulationConfig",
    # construction
    "Simulation",
    "ParallelSimulation",
    "Site",
    # collector registry
    "Collector",
    "CollectorSpec",
    "available_collectors",
    "register_collector",
    "resolve_collector",
    # fault injection
    "FaultPlan",
    "LinkFault",
    "PartitionWindow",
    "SiteCrash",
    # identifiers and outcomes
    "ObjectId",
    "SiteId",
    "TraceId",
    "FrameId",
    "TraceOutcome",
    # errors
    "ReproError",
    "ConfigError",
    "SimulationError",
]
