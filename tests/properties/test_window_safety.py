"""Property: no window ever delivers a message into another shard's past.

The conservative-lookahead safety argument says every message routed out of
a safe-time window delivers at or after the window's dispatched bound.  The
engine enforces exactly that invariant at runtime on every cross-shard
bucket (:meth:`ParallelSimulation._absorb`), so these trials drive the
planner across randomized latency configurations -- homogeneous
uniform bands and heterogeneous zoned topologies, with the global
``min_latency`` floor set to the model's true minimum -- and a planner bug
(an over-eager EOT, a missed pending-message term) surfaces as a
:class:`SimulationError` rather than as silent corruption.  Each trial also
compares the final snapshot against the sequential twin, which would catch
any violation the runtime check somehow missed.
"""

import json
import random

import pytest

from repro import GcConfig, NetworkConfig, Simulation, SimulationConfig
from repro.analysis import graph_snapshot
from repro.errors import SimulationError
from repro.gc.update import UpdateRefreshRequest
from repro.net.latency import UniformLatency, ZonedLatency
from repro.net.message import Message
from repro.sim.parallel import _pack_buckets
from repro.workloads import ChurnConfig, SiteChurn

SITES = [f"s{i}" for i in range(8)]


def _random_latency(rng):
    """A random latency model plus its true global floor."""
    if rng.random() < 0.5:
        low = rng.uniform(0.5, 6.0)
        return UniformLatency(low, low + rng.uniform(0.1, 10.0)), low
    intra_low = rng.uniform(0.5, 3.0)
    cross_low = rng.uniform(5.0, 15.0)
    zones = {site: rng.randrange(3) for site in SITES}
    model = ZonedLatency(
        zones,
        intra=(intra_low, intra_low + rng.uniform(0.1, 2.0)),
        cross=(cross_low, cross_low + rng.uniform(0.1, 10.0)),
    )
    return model, min(intra_low, cross_low)


def _run(workers, model, floor, seed):
    config = SimulationConfig(
        seed=seed,
        network=NetworkConfig(min_latency=floor, max_latency=floor * 20.0),
        gc=GcConfig(local_trace_period=60.0, local_trace_period_jitter=15.0),
        parallel_workers=workers,
    )
    sim = Simulation.create(config, latency_model=model)
    sim.add_sites(SITES, auto_gc=True)
    churn = SiteChurn(sim, SITES, ChurnConfig(mean_interval=5.0))
    churn.start(until=150.0)
    sim.run_for(400.0)
    sim.settle(quiet_time=20.0, max_rounds=2000)
    snap = json.dumps(graph_snapshot(sim), sort_keys=True)
    sim.close()
    return snap


@pytest.mark.parametrize("trial", range(6))
def test_windows_never_deliver_into_the_past_under_random_latency(trial):
    rng = random.Random(1000 + trial)
    model, floor = _random_latency(rng)
    seed = rng.randrange(1 << 16)
    workers = 2 + 2 * (trial % 2)
    parallel_snapshot = _run(workers, model, floor, seed)  # asserts inside
    assert parallel_snapshot == _run(1, model, floor, seed)


def _forged_bucket(deliver_at):
    """A cross-shard bucket holding one message A -> C that delivers at
    ``deliver_at``, bound for worker 1."""
    [bucket] = _pack_buckets(
        [(deliver_at, Message("A", "C", UpdateRefreshRequest()))], {"C": 1}
    )
    return bucket


def test_absorb_rejects_a_message_below_the_window_floor():
    """The runtime invariant check actually fires on a forged record."""
    config = SimulationConfig(
        seed=3,
        network=NetworkConfig(min_latency=5.0, max_latency=10.0),
        parallel_workers=2,
    )
    sim = Simulation.create(config)
    sim.add_sites(["A", "B", "C", "D"], auto_gc=False)
    sim.run_for(1.0)  # forks the pool
    assert sim.parallel_active
    worker = sim._pool.workers[0]
    inf = float("inf")
    forged = ("ok", None, [_forged_bucket(5.0)], inf, inf, 0)
    sim._floor = 100.0
    with pytest.raises(SimulationError, match="window-safety"):
        sim._absorb(worker, forged, window_reply=True)
    sim.close()
