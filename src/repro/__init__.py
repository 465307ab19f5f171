"""repro: a reproduction of Maheshwari & Liskov, "Collecting Distributed
Garbage Cycles by Back Tracing" (PODC 1997).

The library simulates a distributed object store whose sites collect garbage
by local tracing plus inter-site reference listing, and implements the
paper's contribution on top: the distance heuristic for suspecting cyclic
garbage and the back-tracing protocol that confirms and collects it -- with
the locality property the paper is about (collecting a cycle involves only
the sites containing it).

Quickstart (every public name is importable from the package root)::

    from repro import Simulation, SimulationConfig
    from repro.workloads import build_ring_cycle
    from repro.analysis import Oracle

    sim = Simulation.create(SimulationConfig(seed=1))
    sim.add_sites(["P", "Q"], auto_gc=False)
    workload = build_ring_cycle(sim, ["P", "Q"])
    workload.make_garbage(sim)         # cut the root edge: cycle is garbage
    for _ in range(20):
        sim.run_gc_round()             # local traces + back tracing
    assert not Oracle(sim).garbage_set()

Set ``GcConfig(collector="termination")`` to run the same experiment under
the rival termination-detection backend; ``python -m repro diff`` cross-runs
both and oracle-checks that they reclaim identical garbage.
"""

from .config import GcConfig, NetworkConfig, SimulationConfig
from .errors import ConfigError, ReproError, SimulationError
from .ids import FrameId, ObjectId, SiteId, TraceId

# sim.simulation must come before core.collector: entering the import cycle
# (simulation -> collector -> backtrace -> net -> sim) from the sim side is
# the one order in which every name is defined by the time it is needed.
from .sim.simulation import Simulation
from .sim.parallel import ParallelSimulation
from .core.collector import Collector
from .net.faults import FaultPlan, LinkFault, PartitionWindow, SiteCrash
from .site.site import Site
from .core.backtrace.messages import TraceOutcome

__version__ = "1.0.0"

__all__ = [
    "GcConfig",
    "NetworkConfig",
    "SimulationConfig",
    "ReproError",
    "ConfigError",
    "SimulationError",
    "ObjectId",
    "SiteId",
    "TraceId",
    "FrameId",
    "FaultPlan",
    "LinkFault",
    "PartitionWindow",
    "SiteCrash",
    "Simulation",
    "ParallelSimulation",
    "Site",
    "TraceOutcome",
    "Collector",
    "__version__",
]
