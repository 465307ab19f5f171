"""The oracle audits a sharded run on the workers' live state.

After the fork the coordinator's sites, heaps and scheduler are stale
pre-fork copies; an oracle reading them once saw no garbage on a ring cut
after the fork and passed ``check_safety()`` on state that no longer
existed.  :meth:`Simulation.audit_state` reads the workers instead, so at
every instant the sharded twins must report what the sequential twin
reports: the same garbage, the same safety verdict and the same messages in
flight (queued on a worker, stashed on a worker, or still on the
coordinator).
"""

from collections import Counter

import pytest

from repro import GcConfig, NetworkConfig, Simulation, SimulationConfig
from repro.analysis import Oracle
from repro.errors import OracleError
from repro.workloads import ChurnConfig, SiteChurn, build_ring_cycle

SITES = [f"s{i}" for i in range(8)]
INSTANTS = (60.0, 150.0, 260.0, 420.0, 700.0)


def _safety(oracle):
    try:
        oracle.check_safety()
    except OracleError as error:
        return str(error)
    return "safe"


def _observe(workers):
    config = SimulationConfig(
        seed=13,
        gc=GcConfig(suspicion_threshold=2, assumed_cycle_length=2),
        network=NetworkConfig(min_latency=5.0, max_latency=20.0),
        parallel_workers=workers,
    )
    sim = Simulation.create(config)
    sim.add_sites(SITES, auto_gc=True)
    doomed = build_ring_cycle(sim, SITES[:4])
    build_ring_cycle(sim, SITES[::2])  # live bait
    SiteChurn(sim, SITES, ChurnConfig(mean_interval=6.0)).start(until=300.0)
    oracle = Oracle(sim)
    sim.run_for(30.0)  # forks the sharded twins
    doomed.make_garbage(sim)  # cut after the fork
    seen = []
    try:
        for instant in INSTANTS:
            sim.run_until(instant)
            in_flight = Counter(
                (message.src, message.dst, message.payload)
                for message in sim.audit_state().in_flight
            )
            seen.append((sorted(oracle.garbage_set()), _safety(oracle), in_flight))
    finally:
        getattr(sim, "close", lambda: None)()
    return seen, doomed.cycle


@pytest.mark.parametrize("workers", [2, 4])
def test_sharded_oracle_reads_the_workers(workers):
    sequential, ring = _observe(1)
    # The sequential reference does see the cut ring as garbage, with
    # messages in flight at every instant while churn runs.
    assert set(ring) <= set(sequential[1][0])
    assert all(in_flight for _, _, in_flight in sequential[:3])
    sharded, _ = _observe(workers)
    for instant, seq, par in zip(INSTANTS, sequential, sharded):
        assert par == seq, f"t={instant}"
