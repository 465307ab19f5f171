"""Golden digests: the five perf-ledger scenarios and the hot-path legs.

``tests/golden/ledger_digests.json`` holds three sections, each recorded at
the commit named in its ``recorded_at`` field:

- ``digests``: the ledger's five scenarios at smoke size, recorded *before*
  the identifier types became tuples and the local trace went
  one-pass-per-table.  The scenarios and the digest functions are the
  ledger's own (``benchmarks/ledger``); this test only reads them.
- ``hot_path``: the legs on which the per-event hot path (tuple heap
  entries, per-link send caches, interned counter cells, type-keyed site
  dispatch) was twinned against the frozen pre-overhaul engine -- clean
  steady state with deferred-send bundles, a loss+duplication+reorder storm
  with mid-run crash/recover and partition/heal edges (every link-cache
  invalidation rule fires with traffic in flight), and the same clean
  scenario sharded over 2 and 4 workers.  Recorded at the last commit that
  carried that engine, with both engines run and found equal at recording
  time; the digests now hold what the engine held: snapshots, counter values
  *and first-touch creation order*, trace outcomes, events fired.
- ``data_plane``: the scenarios on which the update protocol (sequenced
  deltas over the acknowledged channel), the flat clean-phase kernel and
  trace coalescing were twinned against the full-snapshot protocol, the
  set-based kernel and the plain back tracer, on the default
  configuration; the three scenario functions live with the tests that keep
  auditing them against the oracle.

A change that claims byte identity must leave every digest here untouched; a
change that moves one on purpose re-records the file (run this module:
``PYTHONPATH=src python -m tests.integration.test_golden_digests``) and says
why in CHANGES.md.
"""

from __future__ import annotations

import gc
import hashlib
import json
from pathlib import Path

import pytest

from benchmarks.ledger import worker
from benchmarks.ledger.scenarios import SCENARIOS
from repro import GcConfig, NetworkConfig, Simulation, SimulationConfig
from repro.analysis.export import graph_snapshot
from repro.net.faults import FaultPlan
from repro.workloads import ChurnConfig, SiteChurn, build_ring_cycle

from ..unit import test_delta_updates
from . import test_data_plane_equivalence, test_live_suspects

GOLDEN_PATH = Path(__file__).resolve().parents[1] / "golden" / "ledger_digests.json"
SEEDS = (3, 7)
DIGEST_KEYS = ("sim_digest", "counter_order_digest")


def smoke_digests(workload: str, seed: int) -> dict:
    try:
        result = worker.run(workload, seed, "timed", smoke=True)
    finally:
        # worker.run freezes the heap for its timed phase; a test process
        # wants its garbage back.
        gc.unfreeze()
    failed = [check for check in result["checks"] if not check[1]]
    assert not failed, failed
    return {key: result[key] for key in DIGEST_KEYS}


def record() -> dict:
    return {
        f"{workload}@{seed}": smoke_digests(workload, seed)
        for seed in SEEDS
        for workload in SCENARIOS
    }


# -- hot-path legs -------------------------------------------------------------

HOT_PATH_SITES = [f"s{i:02d}" for i in range(8)]
HOT_PATH_STORM = FaultPlan.loss(0.15, start=40.0, end=220.0).merge(
    FaultPlan.duplication(0.2, copies=1, lag=10.0, start=40.0, end=220.0),
    FaultPlan.reorder_burst(0.3, delay=15.0, start=40.0, end=220.0),
).named("hot-path-storm")
HOT_PATH_LEGS = {
    "clean@13": dict(seed=13, defer=True),
    "chaos@29": dict(seed=29, chaos=True),
    "sequential@17": dict(seed=17),
    "workers2@17": dict(seed=17, workers=2),
    "workers4@17": dict(seed=17, workers=4),
}
#: What a sharded leg must share with the sequential run of its seed (the
#: merged counter order and the per-worker event counts are its own).
ENGINE_INDEPENDENT_KEYS = ("snapshot", "counters", "outcomes")


def _digest(value) -> str:
    blob = json.dumps(value, sort_keys=True, separators=(",", ":")).encode()
    return hashlib.blake2b(blob, digest_size=16).hexdigest()


def _state_digests(snapshot, counters, outcomes) -> dict:
    return {
        "snapshot": _digest(snapshot["sites"]),
        "counters": _digest(sorted((k, v) for k, v in counters.items() if v)),
        "outcomes": _digest(
            [[t, site, str(trace), str(verdict)] for t, site, trace, verdict in outcomes]
        ),
    }


def hot_path_digests(seed, workers=1, chaos=False, defer=False) -> dict:
    """One leg: churn + doomed ring + explicit GC rounds on eight sites."""
    config = SimulationConfig(
        seed=seed,
        gc=GcConfig(
            defer_messages=defer,
            local_trace_period=100.0,
            local_trace_period_jitter=25.0,
            suspicion_threshold=2,
            assumed_cycle_length=2,
            back_threshold_increment=1,
        ),
        network=NetworkConfig(min_latency=5.0, max_latency=20.0),
        parallel_workers=workers,
    )
    sim = Simulation.create(config, fault_plan=HOT_PATH_STORM if chaos else None)
    sim.add_sites(HOT_PATH_SITES, auto_gc=True)
    doomed = build_ring_cycle(sim, HOT_PATH_SITES[:4])
    churn = SiteChurn(sim, HOT_PATH_SITES, ChurnConfig(mean_interval=5.0))
    churn.start(until=200.0)

    sim.run_for(100.0)
    if chaos:
        sim.site("s05").crash()
        sim.run_for(60.0)
        sim.site("s05").recover()
        sim.network.partition(set(HOT_PATH_SITES[:4]), set(HOT_PATH_SITES[4:]))
        sim.run_for(40.0)
        sim.network.heal_partition()
    sim.run_for(250.0)

    sim.quiesce_auto_gc()
    sim.settle(quiet_time=30.0, max_rounds=3000)
    doomed.make_garbage(sim)
    for _ in range(8):
        sim.run_gc_round()
    sim.settle(quiet_time=30.0, max_rounds=3000)

    outcomes = sim.trace_outcomes
    if workers > 1:
        snapshot = sim.snapshot()
        counters = sim.merged_metrics().snapshot().counters
        events_fired = None  # per-worker counts live off-process
        sim.close()
    else:
        snapshot = graph_snapshot(sim)
        counters = sim.metrics.snapshot().counters
        events_fired = sim.scheduler.events_fired
    return {
        **_state_digests(snapshot, counters, outcomes),
        # Ordered items: first-touch creation order is part of the identity.
        "counter_order": worker.counter_order_digest(counters),
        "events_fired": events_fired,
    }


def record_hot_path() -> dict:
    return {leg: hot_path_digests(**kwargs) for leg, kwargs in HOT_PATH_LEGS.items()}


# -- data-plane legs -----------------------------------------------------------

DATA_PLANE_LEGS = {
    "data_plane@5": (test_data_plane_equivalence.run_scenario, 5),
    "data_plane@23": (test_data_plane_equivalence.run_scenario, 23),
    "live@0": (test_live_suspects.run_scenario, 0),
    "live@7": (test_live_suspects.run_scenario, 7),
    "delta@0": (test_delta_updates.run_scenario, 0),
    "delta@7": (test_delta_updates.run_scenario, 7),
}


def data_plane_digests(leg: str) -> dict:
    scenario, seed = DATA_PLANE_LEGS[leg]
    sim = scenario(seed)
    counters = sim.metrics.snapshot().counters
    return {
        **_state_digests(graph_snapshot(sim), counters, sim.trace_outcomes),
        "counter_order": _digest(list(counters)),
    }


def record_data_plane() -> dict:
    return {leg: data_plane_digests(leg) for leg in DATA_PLANE_LEGS}


@pytest.fixture(scope="module")
def golden_file() -> dict:
    return json.loads(GOLDEN_PATH.read_text())


@pytest.fixture(scope="module")
def golden(golden_file) -> dict:
    return golden_file["digests"]


@pytest.fixture(scope="module")
def golden_hot_path(golden_file) -> dict:
    return golden_file["hot_path"]["digests"]


@pytest.fixture(scope="module")
def golden_data_plane(golden_file) -> dict:
    return golden_file["data_plane"]["digests"]


def test_golden_file_covers_every_scenario_and_seed(golden):
    expected = {f"{workload}@{seed}" for workload in SCENARIOS for seed in SEEDS}
    assert set(golden) == expected


@pytest.mark.parametrize("seed", SEEDS)
@pytest.mark.parametrize("workload", sorted(SCENARIOS))
def test_smoke_scenario_matches_its_golden_digests(golden, workload, seed):
    assert smoke_digests(workload, seed) == golden[f"{workload}@{seed}"]


@pytest.mark.parametrize("seed", SEEDS)
def test_two_worker_leg_equals_the_sequential_one(golden, seed):
    sharded, sequential = golden[f"churn_gc_w2@{seed}"], golden[f"churn_gc@{seed}"]
    assert sharded["sim_digest"] == sequential["sim_digest"]
    # First-touch counter order is a sequential-engine notion.
    assert sharded["counter_order_digest"] is None


@pytest.mark.parametrize("leg", sorted(HOT_PATH_LEGS))
def test_hot_path_leg_matches_its_golden_digests(golden_hot_path, leg):
    assert hot_path_digests(**HOT_PATH_LEGS[leg]) == golden_hot_path[leg]


@pytest.mark.parametrize("workers", [2, 4])
def test_sharded_hot_path_leg_equals_the_sequential_one(golden_hot_path, workers):
    sharded = golden_hot_path[f"workers{workers}@17"]
    sequential = golden_hot_path["sequential@17"]
    for key in ENGINE_INDEPENDENT_KEYS:
        assert sharded[key] == sequential[key]


@pytest.mark.parametrize("leg", sorted(DATA_PLANE_LEGS))
def test_data_plane_leg_matches_its_golden_digests(golden_data_plane, leg):
    assert data_plane_digests(leg) == golden_data_plane[leg]


if __name__ == "__main__":
    import subprocess

    commit = subprocess.run(
        ["git", "rev-parse", "HEAD"], capture_output=True, text=True, check=True
    ).stdout.strip()
    GOLDEN_PATH.write_text(
        json.dumps(
            {
                "recorded_at": commit,
                "digests": record(),
                "hot_path": {"recorded_at": commit, "digests": record_hot_path()},
                "data_plane": {
                    "recorded_at": commit,
                    "digests": record_data_plane(),
                },
            },
            indent=1,
        )
        + "\n"
    )
