"""Shared test fixtures and helpers."""

from __future__ import annotations

import json

import pytest
from hypothesis import settings

from repro import GcConfig, NetworkConfig, Simulation, SimulationConfig
from repro.analysis import Oracle, graph_snapshot
from repro.ids import ObjectId
from repro.net.faults import FaultPlan
from repro.workloads import (
    ChurnConfig,
    GraphBuilder,
    SiteChurn,
    build_ring_cycle,
)


# Tier-1 draws the same examples on every run, so a mutant it kills once it
# kills every time, and keeps no example database between runs.  The
# ``explore`` profile draws anew each run and ten times as many examples:
# ``python -m pytest tests/properties --hypothesis-profile=explore``.
settings.register_profile("tier1", derandomize=True, database=None)
settings.register_profile("explore", max_examples=1000)
settings.load_profile("tier1")


def examples(count: int) -> int:
    """A test's example budget under the loaded profile: ``count`` in tier-1,
    ten times it under ``explore``."""
    return count * settings.default.max_examples // 100


def make_sim(
    seed: int = 0,
    sites=("P", "Q", "R"),
    auto_gc: bool = False,
    gc: GcConfig = None,
    network: NetworkConfig = None,
    latency_model=None,
    fault_plan: FaultPlan = None,
) -> Simulation:
    """A simulation with the given sites and controlled (manual) GC."""
    config = SimulationConfig(
        seed=seed,
        gc=gc or GcConfig(),
        network=network or NetworkConfig(),
    )
    sim = Simulation(config, latency_model=latency_model, fault_plan=fault_plan)
    sim.add_sites(list(sites), auto_gc=auto_gc)
    return sim


def collect_until_clean(
    sim: Simulation, oracle: Oracle, max_rounds: int = 60, check_safety: bool = True
) -> int:
    """Run GC rounds until no garbage remains; return rounds used.

    Raises AssertionError if garbage persists after ``max_rounds``.
    """
    for round_number in range(1, max_rounds + 1):
        sim.run_gc_round()
        if check_safety:
            oracle.check_safety()
        if not oracle.garbage_set():
            return round_number
    remaining = oracle.garbage_set()
    raise AssertionError(
        f"{len(remaining)} garbage objects remain after {max_rounds} rounds: "
        f"{sorted(remaining)[:8]}"
    )


@pytest.fixture
def sim():
    return make_sim()


@pytest.fixture
def builder(sim):
    return GraphBuilder(sim)


@pytest.fixture
def oracle(sim):
    return Oracle(sim)


# -- the sharded-engine twin scenario (window planning) ----------------------

TWIN_SITES = [f"s{i:02d}" for i in range(12)]
TWIN_GC = dict(
    local_trace_period=100.0,
    local_trace_period_jitter=25.0,
    suspicion_threshold=2,
    assumed_cycle_length=2,
    back_threshold_increment=1,
    full_trace_every_n=6,
    full_update_period=3,
)
TWIN_NETWORK = dict(min_latency=5.0, max_latency=20.0)
TWIN_STORM = FaultPlan.loss(0.15, start=50.0, end=200.0).merge(
    FaultPlan.duplication(0.2, copies=1, lag=10.0, start=50.0, end=200.0),
    FaultPlan.reorder_burst(0.3, delay=15.0, start=50.0, end=200.0),
).named("twin-storm")


def run_churn_twin(workers, seed, run_time, gc_rounds, fault_plan=None):
    """An e13-shaped workload: churn burst + doomed ring, a quiet tail up to
    ``run_time``, then ``gc_rounds`` explicit GC rounds.

    Returns ``(snapshot_json, outcomes, metrics, stats)`` -- everything a
    sharded run must share with the sequential run of the seed, plus the
    sharded run's coordination stats (``None`` for ``workers == 1``).
    """
    config = SimulationConfig(
        seed=seed,
        gc=GcConfig(**TWIN_GC),
        network=NetworkConfig(**TWIN_NETWORK),
        parallel_workers=workers,
    )
    sim = Simulation.create(config, fault_plan=fault_plan)
    sim.add_sites(TWIN_SITES, auto_gc=True)
    doomed = build_ring_cycle(sim, TWIN_SITES[:4])
    churn = SiteChurn(sim, TWIN_SITES, ChurnConfig(mean_interval=4.0))
    churn.start(until=250.0)

    sim.run_for(run_time)
    sim.quiesce_auto_gc()
    sim.settle(quiet_time=30.0, max_rounds=3000)
    doomed.make_garbage(sim)
    for _ in range(gc_rounds):
        sim.run_gc_round()
    sim.settle(quiet_time=30.0, max_rounds=3000)

    outcomes = sim.trace_outcomes
    snapshot = json.dumps(graph_snapshot(sim), sort_keys=True)
    metrics = {k: v for k, v in sim.merged_metrics()._counters.items() if v}
    stats = sim.coordination_stats() if workers > 1 else None
    sim.close()
    return snapshot, outcomes, metrics, stats


def pick(stats, keys):
    """The sub-dict of ``stats`` a pinned-count assertion compares."""
    return {key: stats[key] for key in keys}


class KeptTrace:
    """One heap under a local collector that keeps its pieces between
    traces, for tests that drive the local trace directly.

    ``trace(roots)`` makes each ``(oid, distance)`` root a clean inref at
    that distance (the suspicion threshold is far above any), ``suspected``
    targets inrefs past it (``(oid, distance)`` pairs past it too), and
    drops the inrefs no longer named; then it
    computes and commits one trace and holds the kept outcome to the
    reference clean phase (:func:`repro.core.distance.trace_clean_phase`,
    from the same roots plus the heap's persistent and variable roots): the
    clean set and every clean outref's distance.  The result tells how many
    clean objects the trace walked (``clean_objects_walked``) and how
    many it kept (``kept_clean``).
    """

    THRESHOLD = 100

    def __init__(self, heap, backinfo_algorithm: str = "bottomup"):
        from repro.gc.inrefs import InrefTable
        from repro.gc.localtrace import LocalCollector
        from repro.gc.outrefs import OutrefTable
        from repro.metrics import MetricsRecorder

        config = GcConfig(
            suspicion_threshold=self.THRESHOLD, backinfo_algorithm=backinfo_algorithm
        )
        self.heap = heap
        self.inrefs = InrefTable(heap.site_id, self.THRESHOLD, config.initial_back_threshold)
        self.outrefs = OutrefTable(heap.site_id, config.initial_back_threshold)
        self.collector = LocalCollector(
            heap, self.inrefs, self.outrefs, config, metrics=MetricsRecorder()
        )

    def trace(self, roots=(), suspected=(), variable_outrefs=()):
        from repro.core.distance import trace_clean_phase

        heap, inrefs = self.heap, self.inrefs
        want = {}
        for oid, distance in roots:
            if oid.site == heap.site_id:
                want[oid] = min(distance, want.get(oid, distance))
        for oid in suspected:
            oid, distance = oid if isinstance(oid[0], ObjectId) else (oid, self.THRESHOLD + 1)
            want[oid] = distance
        for target in inrefs.targets():
            if target not in want:
                inrefs.remove(target)
        for target, distance in want.items():
            if target in inrefs:
                inrefs.set_source(target, "R", distance)
            else:
                inrefs.ensure(target, source="R", distance=distance)
        reference = trace_clean_phase(
            heap,
            [(oid, 0) for oid in sorted(heap.persistent_roots | heap.variable_roots)]
            + [(oid, d) for oid, d in want.items() if d <= self.THRESHOLD],
            variable_outrefs=variable_outrefs,
        )
        result = self.collector.compute(variable_outrefs=variable_outrefs)
        self.collector.commit(result)
        self.collector.check_tables()
        heap.check_flat_mirror()
        assert self.clean_set() == reference.clean_objects
        assert self.clean_outrefs() == reference.outref_distances
        result.kept_clean = result.clean_objects_scanned - result.clean_objects_walked
        return result

    def clean_set(self):
        marks = self.collector._pieces.marks
        return {oid for oid in self.heap.object_ids() if marks[self.heap.get(oid).index]}

    def clean_outrefs(self):
        return {e.target: e.distance for e in self.outrefs.entries() if e.traced_clean}
