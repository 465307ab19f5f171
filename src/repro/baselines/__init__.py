"""Baseline distributed cycle collectors (section 7 of the paper).

The families the paper compares against, implemented over the same
simulated substrate (sites, heaps, reference listing, network) so that
benchmark E6 measures algorithms rather than harness differences:

- :mod:`.globaltrace` -- complementary global marking [Ali85, JJ92];
- :mod:`.hughes` -- timestamp propagation with a global threshold [Hug85];
- :mod:`.migration` -- distance-heuristic controlled migration [ML95];
- :mod:`.grouptrace` -- group formation + intra-group tracing
  [LQP92, MKI+95, RJ96];
- :mod:`.centralservice` -- per-site reachability summaries shipped to a
  logically central detector [BE86, LL92].

Subgraph tracing (trial deletion [LJ93, JL92]) is not here: it is the
first-class ``collector="termination"`` backend, :mod:`repro.core.termination`.

Each baseline is a harness-side driver, constructed directly over a
:class:`~repro.sim.simulation.Simulation` once its sites exist.  It
registers its own message handlers and *replaces* the paper's back tracing
on top of unchanged local tracing, so the simulation runs with
``GcConfig(collector="null")`` (E6's setting).
"""

from .globaltrace import GlobalTraceCollector
from .hughes import HughesCollector
from .migration import MigrationCollector
from .grouptrace import GroupTraceCollector
from .centralservice import CentralServiceCollector

__all__ = [
    "GlobalTraceCollector",
    "HughesCollector",
    "MigrationCollector",
    "GroupTraceCollector",
    "CentralServiceCollector",
]
