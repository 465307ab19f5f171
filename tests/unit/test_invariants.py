"""``Simulation.check_invariants()`` on both engines.

A clean churn run holds every invariant at every instant checked, mid-run
with messages in flight included.  Each check then fires on one forged
violation.  The forgeries are events scheduled before the sharded engine
forks, so on two workers they run inside the worker that owns the site and
are found through the audit broadcast, not on the coordinator's stale copy.
"""

import pytest

from repro import GcConfig, NetworkConfig, Simulation, SimulationConfig
from repro.metrics import names
from repro.workloads import ChurnConfig, SiteChurn, build_ring_cycle

SITES = [f"s{i}" for i in range(8)]
CHURN_UNTIL = 300.0
FORGE_AT = 600.0


def _build(workers):
    config = SimulationConfig(
        seed=21,
        gc=GcConfig(suspicion_threshold=2, assumed_cycle_length=2),
        network=NetworkConfig(min_latency=5.0, max_latency=20.0, pair_rng_streams=True),
        parallel_workers=workers,
    )
    sim = Simulation.create(config)
    sim.add_sites(SITES, auto_gc=True)
    doomed = build_ring_cycle(sim, SITES[:4])
    live = build_ring_cycle(sim, SITES[::2])
    SiteChurn(sim, SITES, ChurnConfig(mean_interval=6.0)).start(until=CHURN_UNTIL)
    return sim, doomed, live


def _close(sim):
    getattr(sim, "close", lambda: None)()


@pytest.mark.parametrize("workers", [1, 2])
def test_clean_churn_holds_every_invariant(workers):
    sim, doomed, _ = _build(workers)
    try:
        in_flight = []
        for instant in (40.0, 120.0, 230.0, 400.0):
            sim.run_until(instant)
            assert sim.check_invariants() == [], instant
            in_flight.append(len(sim.audit_state().in_flight))
        assert max(in_flight) > 0  # the books balanced with messages in flight
        sim.quiesce_auto_gc()
        doomed.make_garbage(sim)
        for _ in range(6):
            sim.run_gc_round()
            assert sim.check_invariants() == []
        state = sim.audit_state()
        assert not any(member in state.sites[member.site].objects for member in doomed.cycle)
    finally:
        _close(sim)


def _append_behind_the_mirror(site, victim):
    """A slot written into the victim's row without the heap's bookkeeping."""
    heap = site.heap
    index = heap.get(victim).index
    heap._succ_local[index].append(index)


def _bump_a_send_counter(site, victim):
    site.metrics.incr(names.msg_sent("UpdatePayload"))


def _flag_a_live_inref(site, victim):
    site.inrefs.get(victim).garbage = True


def _sweep_a_live_object(site, victim):
    site.heap.sweep_ids([victim])


def _forge_an_update_anchor(site, victim):
    """The anchor a sender's seq restarting below it would leave behind:
    one past every update the sender has sent."""
    sender = min(peer for peer, record in site.channel.peers.items() if record.anchor)
    site.channel.peers[sender].anchor += 1


def _lose_an_update_untimed(site, victim):
    """An update counted as sent with no timer to resend it and the peer
    not marked desynced: what a crash used to leave behind."""
    receiver = min(peer for peer, record in site.channel.peers.items() if record.update_seq)
    site.channel.peers[receiver].update_seq += 1


FORGERIES = [
    (_append_behind_the_mirror, "flat mirror: slot refcount drift"),
    (_bump_a_send_counter, "UpdatePayload: sent="),
    (_flag_a_live_inref, "garbage-flagged inref"),
    (_sweep_a_live_object, "SAFETY VIOLATION"),
    (_forge_an_update_anchor, "past"),
    (_lose_an_update_untimed, "not marked desynced"),
]


@pytest.mark.parametrize("workers", [1, 2])
@pytest.mark.parametrize(
    "forge, expected", FORGERIES, ids=[forge.__name__[1:] for forge, _ in FORGERIES]
)
def test_each_check_fires_on_its_forgery(workers, forge, expected):
    sim, _, live = _build(workers)
    # The live ring's second member: held from another site, so it has an
    # inref, and reachable only through the ring.
    victim = live.cycle[1]
    sim.scheduler.schedule_at(
        FORGE_AT,
        lambda: forge(sim.sites[victim.site], victim),
        label="forge",
        site=victim.site,
    )
    try:
        sim.run_until(CHURN_UNTIL + 50.0)
        sim.quiesce_auto_gc()
        sim.run_until(FORGE_AT - 1.0)
        assert sim.check_invariants() == []
        sim.run_until(FORGE_AT)
        [violation] = sim.check_invariants()
        assert expected in violation
    finally:
        _close(sim)
