"""Chaos harness: seed x fault-plan matrices audited by the oracle.

The paper's fault-tolerance claims (section 4.6) are two-sided:

- **safety** -- no live object is ever collected, no matter which messages
  are lost, duplicated, reordered, or which sites crash;
- **eventual collection** -- once the faults heal, every garbage cycle is
  reclaimed (conservative timeouts only *delay* collection).

Each chaos case builds a known object population (garbage rings that get cut
loose, live "bait" rings that must survive), runs GC rounds while a
:class:`~repro.net.faults.FaultPlan` mauls the network, audits
:meth:`~repro.sim.simulation.Simulation.check_invariants` after every
round -- oracle safety, and for every payload kind
``messages.<kind> == delivered + dropped + in flight`` (originals, and
likewise for injected duplicates), among others -- and finally drives
collection to completion after the plan heals.

The workload deliberately performs **no remote-copy traffic inside fault
windows**: a lost insert leaves a pinned outref behind (the paper's "storage
leak, never incorrect collection"), which would make the eventual-collection
assertion fail for a reason that is expected, not a bug.  Garbage is created
by *local* anchor cuts, which need no messages.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional, Sequence

from ..analysis.oracle import Oracle
from ..config import GcConfig, NetworkConfig, SimulationConfig
from ..errors import OracleError
from ..ids import SiteId
from ..net.faults import FaultPlan
from ..sim.simulation import Simulation
from ..workloads.generators import CycleWorkload, build_ring_cycle

#: Fault windows used by :func:`standard_plans`.  The workload is built and
#: settled well before ``FAULT_START`` so construction traffic (inserts,
#: initial updates) is never exposed to the plan.
FAULT_START = 1000.0
FAULT_END = 2600.0


@dataclass
class ChaosResult:
    """Outcome of one (seed, plan) chaos case."""

    seed: int
    plan: str
    #: Every invariant held after every round.
    safety_ok: bool = True
    collected: bool = False
    rounds_to_collect: int = 0
    residual_garbage: int = 0
    violations: List[str] = field(default_factory=list)
    dup_suppressed: int = 0
    retransmits: int = 0
    dropped: int = 0
    duplicated: int = 0

    @property
    def ok(self) -> bool:
        return self.safety_ok and self.collected


def standard_plans(sites: Sequence[SiteId]) -> List[FaultPlan]:
    """The default chaos matrix: clean path plus four flavours of mayhem."""
    sites = sorted(sites)
    half = max(1, len(sites) // 2)
    return [
        FaultPlan(name="clean"),
        FaultPlan.loss(0.20, start=FAULT_START, end=FAULT_END),
        FaultPlan.duplication(
            0.15, copies=2, lag=30.0, start=FAULT_START, end=FAULT_END
        ),
        FaultPlan.reorder_burst(0.30, delay=40.0, start=FAULT_START, end=FAULT_END),
        FaultPlan.loss(0.20, start=FAULT_START, end=FAULT_END).merge(
            FaultPlan.duplication(
                0.15, copies=2, lag=30.0, start=FAULT_START, end=FAULT_END
            ),
            FaultPlan.reorder_burst(
                0.30, delay=40.0, start=FAULT_START, end=FAULT_END
            ),
        ).named("storm"),
        FaultPlan.crash_window(
            sites[0], at=FAULT_START + 200.0, recover_at=FAULT_END - 200.0
        ),
        FaultPlan.partition_window(
            (frozenset(sites[:half]), frozenset(sites[half:])),
            at=FAULT_START + 200.0,
            heal_at=FAULT_END - 200.0,
        ),
    ]


def _apply_edge(sim: Simulation, action: str, data) -> None:
    if action == "crash":
        sim.site(data).crash()
    elif action == "recover":
        sim.site(data).recover()
        # recover() restarts the periodic GC ticker; this harness drives GC
        # manually, so silence it again.
        sim.site(data).stop_auto_gc()
    elif action == "partition":
        sim.partition(*[set(group) for group in data])
    elif action == "heal_partition":
        sim.heal_partition()


def _audit(sim: Simulation) -> None:
    """Raise :class:`OracleError` naming every broken invariant."""
    violations = sim.check_invariants()
    if violations:
        raise OracleError("; ".join(violations))


def run_chaos_case(
    seed: int,
    plan: FaultPlan,
    n_sites: int = 6,
    garbage_rings: int = 3,
    live_rings: int = 2,
    collect_rounds_bound: int = 40,
    gc: Optional[GcConfig] = None,
) -> ChaosResult:
    """Run one audited chaos case; never raises for protocol failures.

    Broken invariants and missed collection are reported on the returned
    :class:`ChaosResult` so a matrix run surveys every cell instead of
    dying on the first bad one.
    """
    result = ChaosResult(seed=seed, plan=plan.name)
    config = SimulationConfig(
        seed=seed,
        gc=gc or GcConfig(),
        network=NetworkConfig(pair_rng_streams=True),
    )
    sim = Simulation.create(config, fault_plan=plan)
    site_ids = [f"s{index}" for index in range(n_sites)]
    sim.add_sites(site_ids, auto_gc=False)
    oracle = Oracle(sim)

    # -- build phase: all construction traffic drains before faults begin --
    rotate = lambda offset: site_ids[offset:] + site_ids[:offset]
    doomed: List[CycleWorkload] = [
        build_ring_cycle(sim, rotate(index % n_sites), rooted=True)
        for index in range(garbage_rings)
    ]
    for index in range(live_rings):
        build_ring_cycle(sim, rotate((index + 1) % n_sites), rooted=True)
    sim.settle()
    if sim.now >= FAULT_START and not plan.is_empty:
        result.violations.append(
            f"workload construction overran the fault window ({sim.now})"
        )

    # -- fault phase: cut anchors locally, run GC rounds under fire --------
    edges = plan.schedule_edges()
    edge_index = 0
    healed = plan.healed_at
    if healed == float("inf"):
        result.violations.append("plan never heals; eventual collection untestable")
        healed = FAULT_END
    horizon = max(healed, FAULT_END)
    cut_times = [
        FAULT_START + (index + 1) * (FAULT_END - FAULT_START) / (garbage_rings + 1)
        for index in range(garbage_rings)
    ]
    cut_index = 0
    try:
        while sim.now < horizon:
            candidates = [horizon]
            if edge_index < len(edges):
                candidates.append(edges[edge_index][0])
            if cut_index < len(cut_times):
                candidates.append(cut_times[cut_index])
            next_stop = min(candidates)
            if next_stop > sim.now:
                sim.run_until(next_stop)
            while edge_index < len(edges) and edges[edge_index][0] <= sim.now:
                _, action, data = edges[edge_index]
                edge_index += 1
                _apply_edge(sim, action, data)
            while cut_index < len(cut_times) and cut_times[cut_index] <= sim.now:
                doomed[cut_index].make_garbage(sim)
                cut_index += 1
            sim.run_gc_round()
            _audit(sim)
        # A GC round can overshoot the horizon with heal edges still queued
        # (recover/heal_partition at the window's edge): apply them now.
        while edge_index < len(edges):
            _, action, data = edges[edge_index]
            edge_index += 1
            _apply_edge(sim, action, data)
    except OracleError as error:
        result.safety_ok = False
        result.violations.append(str(error))
        return result

    # -- heal phase: drive collection to completion ------------------------
    for ring in doomed[cut_index:]:  # cuts scheduled past the horizon
        ring.make_garbage(sim)
    try:
        for round_index in range(1, collect_rounds_bound + 1):
            sim.run_gc_round()
            _audit(sim)
            remaining = oracle.garbage_set()
            if not remaining:
                result.collected = True
                result.rounds_to_collect = round_index
                break
        else:
            result.residual_garbage = len(oracle.garbage_set())
            result.violations.append(
                f"{result.residual_garbage} garbage objects survived "
                f"{collect_rounds_bound} post-heal rounds"
            )
        # Let abandoned retransmission chains and straggler duplicates die.
        sim.settle()
        _audit(sim)
    except OracleError as error:
        result.safety_ok = False
        result.violations.append(str(error))
        return result
    metrics = sim.merged_metrics()
    result.dropped = metrics.count("messages.lost")
    result.duplicated = metrics.total_with_prefix("messages.duplicated.")
    result.retransmits = metrics.count("gc.update_retransmits")
    result.dup_suppressed = metrics.total_with_prefix("protocol.dup_suppressed.")
    return result


def run_chaos_matrix(
    seeds: Sequence[int],
    plans: Optional[Sequence[FaultPlan]] = None,
    **case_kwargs,
) -> List[ChaosResult]:
    """Every seed against every plan; returns one result per cell."""
    results: List[ChaosResult] = []
    for seed in seeds:
        site_count = case_kwargs.get("n_sites", 6)
        resolved = plans
        if resolved is None:
            resolved = standard_plans([f"s{index}" for index in range(site_count)])
        for plan in resolved:
            results.append(run_chaos_case(seed, plan, **case_kwargs))
    return results
