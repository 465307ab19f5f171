"""The five named workloads.

Each scenario builds a simulation from ``--seed`` (generator RNG =
``random.Random(seed)``, simulation seed = the same number), exposes the
simulated time at which its warm-up slice ends, and is advanced by
:func:`advance`, which stops at the scenario's driver-action boundaries
(wave cuts and sweep polls for ``cycle_waves``; nothing for the others).

Why each workload exists, and which layers it bypasses, is recorded next
to its class and in README.md.  Shapes that decide how much work a run
does (ring spans, objects per site, clique sizes) are drawn from a *fixed
multiset shuffled by the seed*, not sampled independently: two seeds then
differ in placement and timing but not in total size, so host-time metrics
of different seeds are comparable.

Cycles are always pre-built before the first ``run_until`` and only *cut*
(``Site.mutator_remove_ref``) afterwards.  Linking objects with
``GraphBuilder`` on a live simulation races in-flight update messages and
makes the oracle report a "SAFETY VIOLATION" that is a driver artefact,
not a collector bug (README.md, Findings (c)).
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Callable, Dict, List, Optional

from repro import GcConfig, NetworkConfig, Simulation, SimulationConfig
from repro.net.message import Payload
from repro.workloads import (
    ChurnConfig,
    GraphBuilder,
    SiteChurn,
    build_chain_across_sites,
    build_clique_cycle,
    build_ring_cycle,
)

WARM_UP_SHARE = 0.05
"""The first 5 % of the simulated duration is set-up, not measurement: it
lets link caches, dispatch tables and CSR mirrors fill and -- for the
2-worker run -- the fork and the shared arena finish."""


def site_names(count: int) -> List[str]:
    return [f"s{i:03d}" for i in range(count)]


class Scenario:
    """One built workload: a simulation plus its driver."""

    name = ""
    #: Engine the workload runs on (the audit run overrides it with 1).
    WORKERS = 1
    #: Simulated ticks between driver polls in *every* run (None = the run
    #: is one ``run_until`` call).
    poll_interval: Optional[float] = None
    #: Simulated ticks between oracle samples in the audit run (None = the
    #: workload has no heap to audit).
    audit_interval: Optional[float] = None
    #: Longest drain the audit run grants the collector after the timed
    #: phase, in simulated ticks.
    drain_limit = 0.0
    drain_step = 0.0
    #: True when the timed phase ends with an empty event queue, so that the
    #: per-kind send accounting must already balance there.
    quiescent_at_end = False

    sim: Simulation
    warm_until: float
    end: float

    def __init__(self) -> None:
        self.events = 0

    def at_boundary(self, now: float) -> None:
        """Driver actions due at simulated time ``now`` (a poll boundary)."""

    def finished(self) -> bool:
        return self.sim.now >= self.end

    def results(self) -> Dict[str, object]:
        """Workload-specific exact results (after the timed phase)."""
        return {}

    def check(self, counters: Dict[str, int]) -> List[tuple]:
        """Workload-specific correctness checks, ``(name, ok, detail)``, given
        the run's (engine-merged) counters."""
        return []


def advance(
    scenario: Scenario,
    until: Optional[float] = None,
    step: Optional[float] = None,
    on_step: Optional[Callable[[float], None]] = None,
) -> None:
    """Run ``scenario`` to ``until`` (default: until it reports finished).

    ``step`` slices the run (the scenario's own poll interval when not
    given); boundaries are multiples of the step counted from the end of
    the warm-up, computed by multiplication so no rounding drift moves a
    driver action between two runs of one scenario.
    """
    sim = scenario.sim
    step = step or scenario.poll_interval
    origin = scenario.warm_until
    while True:
        now = sim.now
        if until is not None:
            if now >= until:
                return
        elif scenario.finished():
            return
        limit = until if until is not None else scenario.end
        target = limit
        boundary = False
        if step and now >= origin:
            nxt = origin + (int((now - origin) / step + 1e-9) + 1) * step
            if nxt <= limit:
                target, boundary = nxt, True
        scenario.events += sim.run_until(target)
        if boundary:
            scenario.at_boundary(target)
            if on_step is not None:
                on_step(target)


# -- ping_storm --------------------------------------------------------------


@dataclass(slots=True)
class Ping(Payload):
    """Storm payload: relayed to the next site until its hops are spent."""

    hops_left: int


class PingStorm(Scenario):
    """8 sites in a ring, 64 self-relaying Ping streams, no GC, no mutator.

    The per-event floor: only ``sim.scheduler``, ``net.network`` and
    ``site`` dispatch do work.  Bypasses every ``gc.*`` / ``core.*`` /
    ``store.*`` layer, so an optimisation of those must read *no change*
    here, and an event-bus or accounting hook that is not zero-cost shows
    here first.  Event count is the same for every seed; the seed moves
    the start sites and the latency draws.
    """

    name = "ping_storm"
    quiescent_at_end = True
    SITES = 8
    STREAMS = 64
    MIN_LATENCY, MAX_LATENCY = 1.0, 4.0

    def __init__(self, seed: int, smoke: bool = False, workers: Optional[int] = None):
        super().__init__()
        hops = 300 if smoke else 3000
        rng = random.Random(seed)
        self.sim = sim = Simulation.create(
            SimulationConfig(
                seed=seed,
                network=NetworkConfig(
                    min_latency=self.MIN_LATENCY,
                    max_latency=self.MAX_LATENCY,
                    pair_rng_streams=True,
                ),
            )
        )
        names = site_names(self.SITES)
        sim.add_sites(names, auto_gc=False)
        for index, name in enumerate(names):
            site = sim.site(name)
            successor = names[(index + 1) % self.SITES]

            def relay(message, site=site, successor=successor):
                left = message.payload.hops_left
                if left:
                    site.send(successor, Ping(left - 1))

            site.register_handler(Ping, relay)
        for _ in range(self.STREAMS):
            start = rng.randrange(self.SITES)
            sim.site(names[start]).send(names[(start + 1) % self.SITES], Ping(hops))
        self.expected_events = self.STREAMS * (hops + 1)
        # Every hop takes at most MAX_LATENCY, so by `end` the storm is over.
        self.end = (hops + 2) * self.MAX_LATENCY
        mean_hop = (self.MIN_LATENCY + self.MAX_LATENCY) / 2
        self.warm_until = WARM_UP_SHARE * hops * mean_hop

    def check(self, counters: Dict[str, int]) -> List[tuple]:
        return [
            (
                "storm_complete",
                self.events == self.expected_events
                and self.sim.scheduler.pending == 0,
                f"events={self.events} expected={self.expected_events}",
            )
        ]


# -- churn_gc / churn_gc_w2 ---------------------------------------------------


def _shuffled_cycle(rng: random.Random, values: List, count: int) -> List:
    """``count`` items taken round-robin from ``values``, shuffled: a fixed
    multiset whatever the seed."""
    items = [values[i % len(values)] for i in range(count)]
    rng.shuffle(items)
    return items


class ChurnGc(Scenario):
    """SiteChurn + periodic GC + a low share of back tracing (E16 shape).

    The realistic mix: mutator driver, send/deliver, small local traces,
    the update protocol.  E16-style churn alone starts *zero* back traces
    (``SiteChurn`` objects have no out-edges), so ring cycles are pre-built
    and cut before the first event; they turn into back traces while the
    churn runs.  With ``workers=2`` the same scenario runs on the sharded
    engine (``churn_gc_w2``): ``sim.parallel``, ``net.wire`` and
    ``store.shm`` do all the coordination there and nothing here.
    """

    name = "churn_gc"
    audit_interval = 75.0
    GC = dict(local_trace_period=150.0, local_trace_period_jitter=30.0)
    NETWORK = dict(min_latency=8.0, max_latency=24.0, pair_rng_streams=True)
    CHURN = dict(mean_interval=3.0, send_weight=2.5)
    RING_SPANS = [2, 3, 4, 5, 6]
    drain_step = 180.0
    drain_limit = 40 * 180.0

    def __init__(self, seed: int, smoke: bool = False, workers: Optional[int] = None):
        super().__init__()
        n_sites, duration, n_rings = (8, 1500.0, 8) if smoke else (24, 3000.0, 24)
        rng = random.Random(seed)
        self.sim = sim = Simulation.create(
            SimulationConfig(
                seed=seed,
                network=NetworkConfig(**self.NETWORK),
                gc=GcConfig(**self.GC),
                parallel_workers=workers or self.WORKERS,
            )
        )
        names = site_names(n_sites)
        sim.add_sites(names, auto_gc=True)
        rings = [
            build_ring_cycle(sim, rng.sample(names, span))
            for span in _shuffled_cycle(rng, self.RING_SPANS, n_rings)
        ]
        churn = SiteChurn(sim, names, ChurnConfig(**self.CHURN))
        for ring in rings:
            ring.make_garbage(sim)
        self.end = duration
        self.warm_until = WARM_UP_SHARE * duration
        # A deadline, not stop(): forked shard workers hold their own copy
        # of the churn object and never see a flag flipped here.
        churn.start(until=duration)

    def check(self, counters: Dict[str, int]) -> List[tuple]:
        started = counters.get("backtrace.started", 0)
        return [("back_traces_started", started > 0, f"started={started}")]


class ChurnGcW2(ChurnGc):
    name = "churn_gc_w2"
    WORKERS = 2


# -- cycle_waves --------------------------------------------------------------


class CycleWaves(Scenario):
    """Waves of distributed garbage cycles under the default ``GcConfig``.

    Collector-dominated: ``core.backtrace``, ``core.backinfo``,
    ``gc.update`` and distance propagation.  Rooted ring and clique
    structures are built at set-up; during the run a wave of anchors is cut
    every ``WAVE_PERIOD`` ticks, the driver polls for swept structures, and
    the run ends when every structure is gone.  Rooted live chains of 10-16
    inter-site hops stay reachable throughout: their far ends become
    suspects whose back traces must answer Live.  Event-path gains should
    move this workload little; trigger-policy, cache and batching changes
    move it most.  The only workload with ``reclaim_ticks_*``.
    """

    name = "cycle_waves"
    poll_interval = 37.5
    audit_interval = 37.5
    SITES = 32
    WAVE_PERIOD = 300.0
    RING_SHAPES = [(span, per_site) for span in range(2, 9) for per_site in range(1, 5)]
    CLIQUE_SPANS = [3, 4]
    CLIQUE_SHARE = 0.3
    WARM_UP = 500.0
    drain_step = 110.0
    drain_limit = 40 * 110.0

    def __init__(self, seed: int, smoke: bool = False, workers: Optional[int] = None):
        super().__init__()
        waves, per_wave, chains = (4, 10, 4) if smoke else (25, 40, 16)
        rng = random.Random(seed)
        self.sim = sim = Simulation.create(
            SimulationConfig(
                seed=seed, network=NetworkConfig(pair_rng_streams=True)
            )
        )
        names = site_names(self.SITES)
        sim.add_sites(names, auto_gc=True)
        total = waves * per_wave
        n_cliques = round(total * self.CLIQUE_SHARE)
        shapes = [
            ("ring", shape)
            for shape in _shuffled_cycle(rng, self.RING_SHAPES, total - n_cliques)
        ] + [
            ("clique", span)
            for span in _shuffled_cycle(rng, self.CLIQUE_SPANS, n_cliques)
        ]
        rng.shuffle(shapes)
        self.structures = []
        for kind, shape in shapes:
            if kind == "ring":
                span, per_site = shape
                built = build_ring_cycle(
                    sim, rng.sample(names, span), objects_per_site=per_site
                )
            else:
                built = build_clique_cycle(sim, rng.sample(names, shape))
            self.structures.append(built)
        for hops in _shuffled_cycle(rng, list(range(10, 17)), chains):
            build_chain_across_sites(sim, rng.sample(names, hops + 1))
        self.warm_until = self.WARM_UP
        self._waves = [
            (self.WARM_UP + k * self.WAVE_PERIOD, k * per_wave, (k + 1) * per_wave)
            for k in range(waves)
        ]
        self._next_wave = 0
        self.last_wave_at = self._waves[-1][0]
        self.end = self.last_wave_at + self.drain_limit
        self._cut_at: Dict[int, float] = {}
        self._pending: List[int] = []
        self.reclaim_ticks: List[float] = []

    def at_boundary(self, now: float) -> None:
        sim = self.sim
        if self._pending:
            still = []
            for index in self._pending:
                members = self.structures[index].cycle
                if any(sim.site(m.site).heap.contains(m) for m in members):
                    still.append(index)
                else:
                    self.reclaim_ticks.append(now - self._cut_at[index])
            self._pending = still
        while self._next_wave < len(self._waves) and self._waves[self._next_wave][0] <= now:
            _, lo, hi = self._waves[self._next_wave]
            for index in range(lo, hi):
                self.structures[index].make_garbage(sim)
                self._cut_at[index] = now
                self._pending.append(index)
            self._next_wave += 1

    def finished(self) -> bool:
        if self.sim.now >= self.end:
            return True
        return self._next_wave == len(self._waves) and not self._pending

    def results(self) -> Dict[str, object]:
        return {
            "structures": len(self.structures),
            "reclaim_ticks": sorted(self.reclaim_ticks),
        }

    def check(self, counters: Dict[str, int]) -> List[tuple]:
        return [
            (
                "all_structures_swept",
                len(self.reclaim_ticks) == len(self.structures),
                f"swept={len(self.reclaim_ticks)} of {len(self.structures)}",
            )
        ]


# -- big_heap -----------------------------------------------------------------


class BigHeap(Scenario):
    """Large local heaps, deep and wide side by side (E18 shape).

    Local-trace-kernel-dominated: ``store.heap`` flat mirror,
    ``core.distance`` kernels, ``gc.localtrace``.  Even sites hold one deep
    chain, odd sites a fan-out-8 tree plus as many random local edges as
    objects, so the numpy vector kernel and the flat kernel each meet the
    shape they were written for without a knob; the ledger shows how many
    traces each kernel took and what they cost.  Light churn keeps every
    heap dirty so each GC tick is a full trace.  The event path (scheduler,
    network, site dispatch) is ~0 here.
    """

    name = "big_heap"
    audit_interval = 750.0
    SITES = 16
    FANOUT = 8
    OUTREFS = 8
    GC = dict(local_trace_period=150.0, local_trace_period_jitter=30.0)
    CHURN = dict(mean_interval=40.0)
    drain_step = 180.0
    drain_limit = 40 * 180.0

    def __init__(self, seed: int, smoke: bool = False, workers: Optional[int] = None):
        super().__init__()
        objects, duration = (600, 900.0) if smoke else (6000, 3000.0)
        rng = random.Random(seed)
        self.sim = sim = Simulation.create(
            SimulationConfig(
                seed=seed,
                network=NetworkConfig(pair_rng_streams=True),
                gc=GcConfig(**self.GC),
            )
        )
        names = site_names(self.SITES)
        sim.add_sites(names, auto_gc=True)
        builder = GraphBuilder(sim)
        for index, name in enumerate(names):
            root = builder.obj(name, root=True)
            members = [root]
            if index % 2 == 0:
                for _ in range(objects):
                    nxt = builder.obj(name)
                    builder.link(members[-1], nxt)
                    members.append(nxt)
            else:
                for k in range(objects):
                    child = builder.obj(name)
                    builder.link(members[k // self.FANOUT], child)
                    members.append(child)
                for _ in range(objects):
                    builder.link(rng.choice(members), rng.choice(members))
            peer = names[(index + 1) % self.SITES]
            for _ in range(self.OUTREFS):
                builder.link(members[-1], builder.obj(peer))
        churn = SiteChurn(sim, names, ChurnConfig(**self.CHURN))
        self.end = duration
        self.warm_until = WARM_UP_SHARE * duration
        churn.start(until=duration)


SCENARIOS = {
    cls.name: cls for cls in (PingStorm, ChurnGc, ChurnGcW2, CycleWaves, BigHeap)
}

WHY = {
    "ping_storm": "per-event floor: only scheduler, network and site dispatch work; gc/core/store changes must read no change",
    "churn_gc": "realistic mix: mutator driver + send/deliver + small local traces + update protocol + a low share of back traces",
    "churn_gc_w2": "the same scenario on 2 shard workers: sim.parallel, net.wire and store.shm do work here and none in churn_gc",
    "cycle_waves": "collector-dominated: back traces, back-info, updates, distance propagation; the only workload with reclaim ticks",
    "big_heap": "local-trace-kernel-dominated: deep and wide 6000-object heaps put the flat and vector kernels on trial",
}
