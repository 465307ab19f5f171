"""One case runner behind the chaos and differential matrices.

The paper's fault-tolerance claims (section 4.6) are two-sided: **safety**
-- no live object is ever collected, whichever messages are lost,
duplicated or reordered and whichever sites crash -- and **eventual
collection** -- once the faults heal, every garbage cycle is reclaimed
(conservative timeouts only *delay* collection).

A :class:`Case` states one run of that claim as plain JSON, and
:func:`run_case` runs every case the same way: build and settle (cuts with
no time are made at once); the fault phase, which applies the plan's
crash/partition edges and the timed cuts as simulated time reaches them,
one GC round at a time, until the plan heals and ``horizon`` has passed;
the drain, GC rounds until the oracle's garbage set is empty or
``drain_rounds`` have run; and a settle, so abandoned retransmissions and
straggling copies die.  ``check_invariants()`` is audited after every GC
round and after the settle.  A broken invariant or a missed collection is a
violation on the returned :class:`CaseRun`; nothing raises, so a matrix
surveys every cell, and ``python -m repro replay case.json`` re-runs one.

The chaos matrix is seed x fault plan over rings cut loose inside the fault
window.  It performs **no remote-copy traffic inside fault windows**: a lost
insert leaves a pinned outref behind (the paper's "storage leak, never
incorrect collection"), which would fail eventual collection for an
expected reason; local anchor cuts need no messages.  The differential
matrix is seed x builder with no faults, each case run under both backends
by :func:`compare_backends`: they share everything below the collector
boundary, so they must reclaim exactly the oracle's garbage set, differing
only in when.
"""

from __future__ import annotations

from dataclasses import dataclass, field, fields, replace
from functools import partial
from typing import Callable, Dict, FrozenSet, List, Optional, Sequence, Set, Tuple

from ..analysis.oracle import Oracle
from ..config import GcConfig, NetworkConfig, SimulationConfig
from ..errors import ConfigError, OracleError
from ..ids import ObjectId, SiteId
from ..metrics.counters import MetricsRecorder
from ..net.faults import FaultPlan
from ..sim.simulation import Simulation
from ..workloads.churn import ChurnConfig, SiteChurn
from ..workloads.generators import build_ring_cycle
from ..workloads.hypertext import build_hypertext_web

_INF = float("inf")

#: The two rival backends a differential case runs under.
BACKENDS = ("backtrace", "termination")

#: The chaos matrix's fault window.  Its population is built and settled
#: well before ``FAULT_START``, so construction traffic never meets the plan.
FAULT_START = 1000.0
FAULT_END = 2600.0

#: A builder returns its cuts: each makes some of the population garbage.
Cut = Callable[[Simulation], None]


def _build_rings(
    sim: Simulation, sites: Sequence[SiteId], garbage: int, live: int, objects_per_site: int
) -> List[Cut]:
    """``garbage`` rings to cut loose (``objects_per_site`` long per site) and
    ``live`` bait rings that must survive, each starting at another site."""
    rotate = lambda offset: list(sites[offset:]) + list(sites[:offset])
    doomed = [
        build_ring_cycle(sim, rotate(index % len(sites)), objects_per_site=objects_per_site)
        for index in range(garbage)
    ]
    for index in range(live):
        build_ring_cycle(sim, rotate((index + 1) % len(sites)))
    return [ring.make_garbage for ring in doomed]


def _build_churn(
    sim: Simulation, sites: Sequence[SiteId], rings: int, mean_interval: float
) -> List[Cut]:
    doomed = [build_ring_cycle(sim, list(sites)) for _ in range(rings)]
    # Churn draws from the sim's named RNG streams, so every backend's build
    # replays the same operation sequence for one seed.
    churn = SiteChurn(sim, list(sites), config=ChurnConfig(mean_interval=mean_interval))
    churn.start(until=600.0)
    sim.run_for(700.0)
    churn.stop()
    return [ring.make_garbage for ring in doomed]


def _build_hypertext(
    sim: Simulation,
    sites: Sequence[SiteId],
    citations_per_document: int,
    back_link_probability: float,
) -> List[Cut]:
    # Keep citations sparse: at the default density one surviving catalog
    # entry transitively reaches nearly every document and no garbage forms.
    web = build_hypertext_web(
        sim,
        list(sites),
        citations_per_document=citations_per_document,
        back_link_probability=back_link_probability,
        seed=sim.config.seed,
    )
    # Strand all but one catalogued document: whatever the surviving entry
    # doesn't reach through citations -- usually several cross-site citation
    # cycles -- becomes garbage; its own closure is the live bait.
    return [
        partial(web.unlink_from_catalog, index=index)
        for index in list(web.catalog_entries)[1:]
    ]


BUILDERS: Dict[str, Callable[..., List[Cut]]] = {
    "rings": _build_rings,
    "churn": _build_churn,
    "hypertext": _build_hypertext,
}


@dataclass(frozen=True)
class Case:
    """Everything one run needs; round-trips through plain JSON."""

    name: str
    config: SimulationConfig
    sites: Tuple[SiteId, ...]
    builder: str
    args: Dict[str, object]
    plan: FaultPlan = FaultPlan(name="clean")
    #: When the builder's cuts are made, in order; cuts past the end of this
    #: list are made right after the build.
    cut_at: Tuple[float, ...] = ()
    #: The fault phase runs GC rounds until at least this time.
    horizon: float = 0.0
    drain_rounds: int = 40
    #: A replay runs the case under both backends, whose reclaimed sets must
    #: match; otherwise under its config's collector alone.
    agrees: bool = False

    def __post_init__(self) -> None:
        if self.builder not in BUILDERS:
            raise ConfigError(
                f"unknown builder {self.builder!r}; available: {', '.join(BUILDERS)}"
            )
        if self.drain_rounds < 1:
            raise ConfigError("drain_rounds must be >= 1")

    def to_json(self) -> dict:
        data = {f.name: getattr(self, f.name) for f in fields(self)}
        for name in ("sites", "cut_at"):
            data[name] = list(data[name])
        return {**data, "config": self.config.to_json(), "plan": self.plan.to_json()}

    @classmethod
    def from_json(cls, data: dict) -> "Case":
        return cls(**{
            **data,
            **{name: tuple(data[name]) for name in ("sites", "cut_at")},
            "config": SimulationConfig.from_json(data["config"]),
            "plan": FaultPlan.from_json(data["plan"]),
        })


@dataclass
class CaseRun:
    """What one run of a case under one backend did."""

    collector: str
    #: Every invariant held after every round.
    safety_ok: bool = True
    #: Drain rounds until the oracle's garbage set was empty; None if never.
    rounds: Optional[int] = None
    #: Every object of the build that was garbage by the drain's start: the
    #: oracle's garbage set then, plus what the fault phase reclaimed.  Cuts
    #: are the only mutations, so it does not depend on the backend.
    garbage: FrozenSet[ObjectId] = frozenset()
    #: object -> drain round (1-based) in which it disappeared; 0 for the
    #: fault phase.
    reclaim_round: Dict[ObjectId, int] = field(default_factory=dict)
    violations: List[str] = field(default_factory=list)
    #: The run's counter totals (either engine).
    metrics: Optional[MetricsRecorder] = None

    @property
    def collected(self) -> bool:
        return self.rounds is not None

    @property
    def reclaimed(self) -> Set[ObjectId]:
        return set(self.reclaim_round)


def _apply_edge(sim: Simulation, action: str, data) -> None:
    if action == "crash":
        sim.site(data).crash()
    elif action == "recover":
        sim.site(data).recover()
        # recover() restarts the periodic GC ticker; cases drive GC by
        # rounds, so silence it again.
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


def _gc_round(sim: Simulation) -> None:
    sim.run_gc_round()
    _audit(sim)


def drain(step: Callable[[int], None], done: Callable[[], bool], bound: int) -> Optional[int]:
    """Run ``step(round)`` -- one round and its audit -- until ``done()``;
    return the round that finished, or None after ``bound`` rounds."""
    for round_index in range(1, bound + 1):
        step(round_index)
        if done():
            return round_index
    return None


def _drive(case: Case, sim: Simulation, run: CaseRun) -> None:
    sim.add_sites(list(case.sites), auto_gc=False)
    oracle = Oracle(sim)
    cuts = BUILDERS[case.builder](sim, case.sites, **case.args)
    sim.settle()
    untimed = cuts[len(case.cut_at):]
    if untimed:
        for cut in untimed:
            cut(sim)
        sim.settle()
    built = set(sim.all_object_ids())

    # -- fault phase: plan edges and timed cuts, one GC round at a time ----
    plan = case.plan
    edges = plan.schedule_edges()
    due_cuts = list(zip(case.cut_at, cuts))
    healed = plan.healed_at
    starts = [edge[0] for edge in edges] + [rule.start for rule in plan.links]
    if sim.now >= min(starts, default=_INF):
        run.violations.append(f"workload construction overran the fault window ({sim.now})")
    if healed == _INF:
        run.violations.append("plan never heals; eventual collection untestable")
    horizon = max(case.horizon if healed == _INF else healed, case.horizon)
    while sim.now < horizon:
        stop = min([horizon] + [e[0] for e in edges[:1]] + [c[0] for c in due_cuts[:1]])
        if stop > sim.now:
            sim.run_until(stop)
        while edges and edges[0][0] <= sim.now:
            _apply_edge(sim, *edges.pop(0)[1:])
        while due_cuts and due_cuts[0][0] <= sim.now:
            due_cuts.pop(0)[1](sim)
        _gc_round(sim)
    # A GC round can overshoot the horizon with heal edges (recover or
    # heal_partition at the window's edge) or cuts still pending.
    for _, action, data in edges:
        _apply_edge(sim, action, data)
    for _, cut in due_cuts:
        cut(sim)

    # -- drain: GC rounds until the oracle's garbage set is empty ----------
    gone = built.difference(sim.all_object_ids())
    run.reclaim_round = dict.fromkeys(gone, 0)
    run.garbage = frozenset(oracle.garbage_set() | gone)

    def step(round_index: int) -> None:
        _gc_round(sim)
        for oid in built.difference(sim.all_object_ids()):
            run.reclaim_round.setdefault(oid, round_index)

    run.rounds = drain(step, lambda: not oracle.garbage_set(), case.drain_rounds)
    if run.rounds is None:
        run.violations.append(
            f"{len(oracle.garbage_set())} garbage objects survived "
            f"{case.drain_rounds} drain rounds"
        )
    sim.settle()
    _audit(sim)


def run_case(case: Case, backend: Optional[str] = None) -> CaseRun:
    """Run ``case`` once, under ``backend`` if given, else under its
    config's collector.  Never raises for a protocol failure: broken
    invariants and missed collection are the result's violations."""
    config = case.config
    if backend is not None:
        config = replace(config, gc=replace(config.gc, collector=backend))
    run = CaseRun(collector=config.gc.collector)
    sim = Simulation.create(config, fault_plan=case.plan)
    try:
        try:
            _drive(case, sim, run)
        except OracleError as error:
            run.safety_ok = False
            run.violations.append(str(error))
        run.metrics = sim.merged_metrics()
    finally:
        # The sharded engine's workers; a sequential run has nothing to close.
        getattr(sim, "close", lambda: None)()
    return run


def chaos_row(run: CaseRun) -> dict:
    """One chaos cell as ``repro chaos`` prints it and the golden file pins it."""
    metrics = run.metrics
    return {
        "safe": run.safety_ok,
        "collected": run.collected,
        "rounds": run.rounds,
        "dropped": metrics.count("messages.lost"),
        "dup": metrics.total_with_prefix("messages.duplicated."),
        "retrans": metrics.count("gc.update_retransmits"),
        "suppressed": metrics.total_with_prefix("protocol.dup_suppressed."),
    }


@dataclass
class Comparison:
    """One case run under both backends, and where the runs disagree."""

    case: Case
    runs: Dict[str, CaseRun]
    violations: List[str]

    @property
    def failures(self) -> List[str]:
        """The comparison's violations, then every run's, named by backend."""
        return self.violations + [
            f"{name}: {violation}"
            for name, run in self.runs.items()
            for violation in run.violations
        ]

    @property
    def latency_gap(self) -> Optional[float]:
        """Mean (termination - backtrace) per-object reclaim-round gap."""
        bt, tm = (self.runs[name].reclaim_round for name in BACKENDS)
        common = [oid for oid in bt if oid in tm]
        if not common:
            return None
        return sum(tm[oid] - bt[oid] for oid in common) / len(common)


def compare_backends(case: Case) -> Comparison:
    """Run ``case`` under both backends and diff what they reclaimed."""
    runs = {name: run_case(case, name) for name in BACKENDS}
    bt, tm = runs.values()
    # The build is backend-independent (GC starts after it): a differing
    # ground truth means the twin construction itself is broken.
    if bt.garbage != tm.garbage:
        return Comparison(case, runs, [
            f"non-identical twin builds: oracle garbage differs by "
            f"{len(bt.garbage ^ tm.garbage)} objects"
        ])
    violations = []
    if bt.reclaimed != tm.reclaimed:
        only_bt = sorted(str(oid) for oid in bt.reclaimed - tm.reclaimed)
        only_tm = sorted(str(oid) for oid in tm.reclaimed - bt.reclaimed)
        violations.append(
            f"reclaimed sets differ: only backtrace {only_bt[:5]}, "
            f"only termination {only_tm[:5]}"
        )
    for name, run in runs.items():
        if run.collected and run.reclaimed != run.garbage:
            # Cleared the oracle's garbage set but swept a different set --
            # only possible if it collected something live (the audit
            # should have caught it first, but belt and braces).
            violations.append(
                f"{name}: reclaimed {len(run.reclaimed)} objects but oracle "
                f"expected {len(run.garbage)}"
            )
    return Comparison(case, runs, violations)


def diff_row(comparison: Comparison) -> dict:
    """One differential cell as ``repro diff`` prints it and the golden file
    pins it."""
    bt, tm = (comparison.runs[name] for name in BACKENDS)
    return {
        "garbage": len(bt.garbage) if bt.garbage == tm.garbage else 0,
        "bt_rounds": bt.rounds,
        "term_rounds": tm.rounds,
        "gap": comparison.latency_gap,
        "agree": not comparison.failures,
    }


# -- the two matrices ----------------------------------------------------------


def standard_plans(sites: Sequence[SiteId]) -> List[FaultPlan]:
    """The chaos matrix's plans: the clean path and six kinds of mayhem."""
    sites = sorted(sites)
    half = max(1, len(sites) // 2)
    window = {"start": FAULT_START, "end": FAULT_END}
    loss = FaultPlan.loss(0.20, **window)
    dup = FaultPlan.duplication(0.15, copies=2, lag=30.0, **window)
    reorder = FaultPlan.reorder_burst(0.30, delay=40.0, **window)
    return [
        FaultPlan(name="clean"),
        loss,
        dup,
        reorder,
        loss.merge(dup, reorder).named("storm"),
        FaultPlan.crash_window(
            sites[0], at=FAULT_START + 200.0, recover_at=FAULT_END - 200.0
        ),
        FaultPlan.partition_window(
            (frozenset(sites[:half]), frozenset(sites[half:])),
            at=FAULT_START + 200.0,
            heal_at=FAULT_END - 200.0,
        ),
    ]


def chaos_case(
    seed: int,
    plan: FaultPlan,
    n_sites: int = 6,
    garbage_rings: int = 3,
    live_rings: int = 2,
    gc: Optional[GcConfig] = None,
) -> Case:
    """Rings cut loose one by one inside the fault window, under ``plan``."""
    return Case(
        name=f"{seed}/{plan.name}",
        config=SimulationConfig(
            seed=seed, gc=gc or GcConfig(), network=NetworkConfig(pair_rng_streams=True)
        ),
        sites=tuple(f"s{index}" for index in range(n_sites)),
        builder="rings",
        args={"garbage": garbage_rings, "live": live_rings, "objects_per_site": 1},
        plan=plan,
        cut_at=tuple(
            FAULT_START + (index + 1) * (FAULT_END - FAULT_START) / (garbage_rings + 1)
            for index in range(garbage_rings)
        ),
        horizon=FAULT_END,
    )


def chaos_cases(
    seeds: Sequence[int], plans: Optional[Sequence[FaultPlan]] = None, **case_kwargs
) -> List[Case]:
    """Every seed against every plan (default :func:`standard_plans`)."""
    sites = [f"s{index}" for index in range(case_kwargs.get("n_sites", 6))]
    return [
        chaos_case(seed, plan, **case_kwargs)
        for seed in seeds
        for plan in (standard_plans(sites) if plans is None else plans)
    ]


#: Differential builder -> its arguments; each makes garbage deterministically.
DIFF_ARGS = {
    "rings": {"garbage": 3, "live": 2, "objects_per_site": 2},
    "churn": {"rings": 2, "mean_interval": 5.0},
    "hypertext": {"citations_per_document": 1, "back_link_probability": 0.9},
}
WORKLOADS = tuple(DIFF_ARGS)


def diff_case(seed: int, workload: str, n_sites: int = 4) -> Case:
    """A fault-free case both backends must agree on."""
    return Case(
        name=f"{seed}/{workload}",
        # Low thresholds bound rounds-to-suspicion, so the drain converges
        # quickly under both backends.
        config=SimulationConfig(
            seed=seed,
            gc=GcConfig(suspicion_threshold=2, assumed_cycle_length=2),
            network=NetworkConfig(pair_rng_streams=True),
        ),
        sites=tuple(f"s{index}" for index in range(n_sites)),
        builder=workload,
        args=dict(DIFF_ARGS.get(workload, {})),
        agrees=True,
    )


def diff_cases(seeds: Sequence[int], workloads: Sequence[str] = WORKLOADS) -> List[Case]:
    """Every seed against every differential builder."""
    return [diff_case(seed, workload) for seed in seeds for workload in workloads]
