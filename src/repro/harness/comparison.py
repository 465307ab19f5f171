"""The collector-comparison driver behind benchmark E6 and the shootout
example.

One scenario, many collectors: a two-site garbage cycle (on s0, s1) inside an
8-site system whose remaining sites hold live inter-site structure.  Each
collector runs on an identical fresh simulation; per run we report rounds to
collection, protocol message count, the set of sites its protocol involved,
and whether collection still succeeds with a crashed bystander site.

The two per-site backends (backtrace, termination) are selected through
``GcConfig.collector`` and just run GC rounds.  The section 7 baselines are
harness-side drivers: the simulation runs the ``null`` backend with back
tracing off, and the driver named in :data:`BASELINES` is constructed
directly over it.
"""

from __future__ import annotations

from typing import Callable, Dict, List, Optional

from ..analysis.oracle import Oracle
from ..baselines import (
    CentralServiceCollector,
    GlobalTraceCollector,
    GroupTraceCollector,
    HughesCollector,
    MigrationCollector,
)
from ..config import GcConfig, SimulationConfig
from ..sim.simulation import Simulation
from ..workloads.generators import build_ring_cycle
from ..workloads.topology import GraphBuilder

N_SITES = 8
CYCLE_SITES = ["s0", "s1"]

PROTOCOL_KINDS: Dict[str, List[str]] = {
    "backtrace": ["BackCall", "BackReply", "BackOutcome"],
    "termination": [
        "TrialMark",
        "TrialRescueStart",
        "TrialRescue",
        "TrialAck",
        "TrialCollect",
        "TrialAbort",
    ],
    "global": ["StartGlobalMark", "MarkBatch", "MarkAck", "SweepCommand"],
    "hughes": ["StampUpdate", "GcTimeRequest", "GcTimeReply", "ThresholdAnnounce"],
    "migration": ["MigrateObject", "PatchRefs"],
    "group": [
        "GroupDiscover",
        "GroupDiscoverReply",
        "GroupMarkStart",
        "GroupMark",
        "GroupAck",
        "GroupSweep",
    ],
    "central": ["SummaryRequest", "SummaryReply", "FlagCommand"],
}

#: Per-site backends: E6 row name == ``GcConfig.collector`` name.
PER_SITE_BACKENDS = ("backtrace", "termination")

#: Baseline E6 row name -> driver constructor over a built scenario.
BASELINES: Dict[str, Callable[[Simulation], object]] = {
    "global": lambda sim: GlobalTraceCollector(sim, "s0"),
    "hughes": lambda sim: HughesCollector(sim, "s0"),
    "migration": MigrationCollector,
    "group": GroupTraceCollector,
    "central": lambda sim: CentralServiceCollector(sim, "s0"),
}


def build_scenario(seed: int = 7, enable_backtracing: bool = True, collector: str = "backtrace"):
    """The shared workload: cycle on s0/s1, live chain over the rest."""
    sites = [f"s{i}" for i in range(N_SITES)]
    gc = GcConfig(enable_backtracing=enable_backtracing, collector=collector)
    sim = Simulation.create(SimulationConfig(seed=seed, gc=gc))
    sim.add_sites(sites, auto_gc=False)
    workload = build_ring_cycle(sim, CYCLE_SITES)
    # Realistic object sizes: control messages stay unit-sized, but a
    # collector that ships whole objects (migration) pays for the payload.
    for member in workload.cycle:
        sim.site(member.site).heap.get(member).payload_size = 20
    builder = GraphBuilder(sim)
    previous = builder.obj("s2", root=True)
    for site_id in ("s3", "s4", "s5", "s6", "s7", "s3", "s5"):
        nxt = builder.obj(site_id)
        builder.link(previous, nxt)
        previous = nxt
    for _ in range(2):
        sim.run_gc_round()
    workload.make_garbage(sim)
    return sim, workload


def protocol_stats(sim: Simulation, name: str, before):
    """Message count, size units, and involved sites for one protocol.

    ``units`` approximates bytes on the wire: constant-size control messages
    count 1, bulk payloads (object migration, reachability summaries) count
    their actual content -- which is how migration's two "cheap-looking"
    messages reveal their real cost.
    """
    delta = sim.metrics.snapshot().diff(before)
    kinds = PROTOCOL_KINDS[name]
    messages = sum(delta.get(f"messages.{kind}", 0) for kind in kinds)
    units = sum(delta.get(f"units.{kind}", 0) for kind in kinds)
    involved = set()
    for key, value in delta.items():
        parts = key.split(".")
        if len(parts) == 3 and parts[0] == "involve" and parts[1] in kinds and value:
            involved.add(parts[2])
    return messages, units, sorted(involved)


def run_with_collector(name: str, crash_bystander: bool = False) -> Dict:
    """Run one collector on a fresh scenario; return its comparison row."""
    per_site = name in PER_SITE_BACKENDS
    if not per_site and name not in BASELINES:
        raise ValueError(f"unknown collector {name!r}")
    sim, workload = build_scenario(
        enable_backtracing=per_site, collector=name if per_site else "null"
    )
    oracle = Oracle(sim)
    before = sim.metrics.snapshot()
    if crash_bystander:
        sim.site("s7").crash()
    driver = None if per_site else BASELINES[name](sim)

    def garbage_left():
        return {oid for oid in oracle.garbage_set() if oid.site != "s7"}

    rounds: Optional[int] = None
    if per_site:
        for r in range(1, 61):
            sim.run_gc_round()
            oracle.check_safety()
            if not garbage_left():
                rounds = r
                break
    elif name == "global":
        for r in range(1, 13):
            driver.start_round()
            sim.run_for(3000.0)
            sim.settle()
            oracle.check_safety()
            if not garbage_left():
                rounds = r
                break
    elif name == "hughes":
        for r in range(1, 13):
            driver.run_round()
            oracle.check_safety()
            if not garbage_left():
                rounds = r
                break
    elif name == "migration":
        for r in range(1, 41):
            driver.run_round()
            oracle.check_safety()
            if not garbage_left():
                rounds = r
                break
    else:  # group / central: round + message drain
        for r in range(1, 41):
            driver.run_round()
            sim.run_for(3000.0)
            sim.settle()
            oracle.check_safety()
            if not garbage_left():
                rounds = r
                break

    messages, units, involved = protocol_stats(sim, name, before)
    return {
        "rounds": rounds,
        "messages": messages,
        "units": units,
        "involved": involved,
        "collected": rounds is not None,
    }
