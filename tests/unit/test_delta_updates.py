"""Delta-encoded update protocol: diffing, ordering, gap repair, faults."""

import pytest

from repro import GcConfig, NetworkConfig, Simulation, SimulationConfig
from repro.analysis import Oracle
from repro.gc.inrefs import InrefTable
from repro.gc.update import UpdateDeltaPayload, UpdatePayload, apply_update_delta
from repro.ids import ObjectId
from repro.metrics import names
from repro.net.faults import FaultPlan
from repro.net.message import Message
from repro.workloads import GraphBuilder, build_ring_cycle

from ..conftest import make_sim
from .test_localtrace import make_collector

SITES = [f"s{i}" for i in range(6)]
TUNING = dict(
    suspicion_threshold=2,
    assumed_cycle_length=2,
    back_threshold_increment=1,
)


# -- building deltas at the collector ----------------------------------------


def test_first_trace_is_full_then_quiescent_tick_sends_nothing():
    c = make_collector()
    root = c.heap.alloc(persistent_root=True)
    remote = ObjectId("R", 0)
    root.add_ref(remote)
    c.outrefs.ensure(remote)
    first = c.run()
    assert first.updates_by_site["R"].full  # periodic full anchors the chain
    second = c.run()
    assert "R" not in second.updates_by_site  # empty diff -> no message at all


def test_distance_change_travels_as_delta_change():
    c = make_collector()
    held = c.heap.alloc()
    remote = ObjectId("R", 0)
    held.add_ref(remote)
    c.inrefs.ensure(held.oid, source="P", distance=3)
    c.outrefs.ensure(remote)
    c.run()  # full: (remote, 4)
    c.inrefs.require(held.oid).set_source_distance("P", 5)
    result = c.run()
    payload = result.updates_by_site["R"]
    assert isinstance(payload, UpdateDeltaPayload)
    assert payload.distances == ((remote, 6),)
    assert payload.adds == () and payload.removals == ()


def test_new_outref_travels_as_delta_add():
    c = make_collector()
    root = c.heap.alloc(persistent_root=True)
    first = ObjectId("R", 0)
    root.add_ref(first)
    c.outrefs.ensure(first)
    c.run()
    second = ObjectId("R", 1)
    root.add_ref(second)
    c.outrefs.ensure(second)
    result = c.run()
    payload = result.updates_by_site["R"]
    assert isinstance(payload, UpdateDeltaPayload)
    assert payload.adds == ((second, 1),)
    assert payload.distances == () and payload.removals == ()


def test_delta_apply_folds_adds_changes_and_removals():
    inrefs = InrefTable("B", 4, 0)
    kept = ObjectId("B", 0)
    dropped = ObjectId("B", 1)
    inrefs.ensure(kept, source="A", distance=1)
    inrefs.ensure(dropped, source="A", distance=1)
    changed = apply_update_delta(
        inrefs,
        "A",
        UpdateDeltaPayload(adds=(), distances=((kept, 7),), removals=(dropped,)),
    )
    assert changed
    assert inrefs.require(kept).sources["A"] == 7
    assert dropped not in inrefs  # sole source removed -> inref dies
    # Stale news about references the receiver never registered is ignored.
    ghost = ObjectId("B", 2)
    assert not apply_update_delta(
        inrefs, "A", UpdateDeltaPayload(adds=((ghost, 3),), removals=(ghost,))
    )


# -- ordering: gaps, refresh repair, duplicates ------------------------------


def _anchored_pair():
    """A root at A holding an outref to B, traced once: B anchored at seq 1."""
    sim = make_sim(sites=("A", "B"))
    b = GraphBuilder(sim)
    root = b.obj("A", "root", root=True)
    target = b.obj("B", "t")
    b.link(root, target)
    sim.site("A").run_local_trace()
    sim.settle()
    assert sim.site("B").channel.peers["A"].anchor == 1
    return sim, b


def test_gap_requests_refresh_and_full_update_reanchors():
    sim, b = _anchored_pair()
    receiver = sim.site("B")
    acks = sim.metrics.count(names.msg_sent("UpdateAck"))
    # Forge a delta two sequences ahead: seq 2 "was lost".
    receiver.receive(
        Message(src="A", dst="B", payload=UpdateDeltaPayload(seq=3))
    )
    assert sim.metrics.count(names.UPDATE_GAPS_DETECTED) == 1
    assert sim.metrics.count(names.UPDATE_REFRESHES_REQUESTED) == 1
    assert sim.metrics.count(names.msg_sent("UpdateAck")) == acks  # no ack
    sim.settle()  # refresh request -> A serves full seq 2 -> B re-anchors
    assert sim.metrics.count(names.UPDATE_REFRESHES_SERVED) == 1
    assert sim.metrics.count(names.msg_sent("UpdateAck")) == acks + 1
    # Re-anchored at 2: the delta one past it applies.
    target = b["t"]
    receiver.receive(
        Message(
            src="A",
            dst="B",
            payload=UpdateDeltaPayload(distances=((target, 9),), seq=3),
        )
    )
    assert receiver.inrefs.require(target).sources["A"] == 9
    assert sim.metrics.count(names.UPDATE_GAPS_DETECTED) == 1


def test_duplicate_of_applied_delta_is_reacked_not_reapplied():
    sim, b = _anchored_pair()
    receiver = sim.site("B")
    target = b["t"]
    dup = Message(
        src="A",
        dst="B",
        payload=UpdateDeltaPayload(distances=((target, 9),), seq=2),
    )
    receiver.receive(dup)
    assert receiver.inrefs.require(target).sources["A"] == 9
    receiver.inrefs.require(target).set_source_distance("A", 4)
    receiver.receive(dup)  # replay: suppressed, graph untouched
    assert receiver.inrefs.require(target).sources["A"] == 4
    assert sim.metrics.count(names.dup_suppressed("UpdateDeltaPayload")) == 1
    assert receiver.channel.peers["A"].anchor == 2


def test_gapped_delta_is_never_recorded_as_seen():
    sim = make_sim(sites=("A", "B"))
    receiver = sim.site("B")
    gapped = Message(src="A", dst="B", payload=UpdateDeltaPayload(seq=5))
    receiver.receive(gapped)
    receiver.receive(gapped)  # duplicate of a *rejected* delta
    # Both deliveries took the gap path: no ack (an ack would cancel the
    # sender's retransmission timer -- the repair backstop -- for a payload
    # we never applied), and the anchor did not move.
    assert sim.metrics.count(names.UPDATE_GAPS_DETECTED) == 2
    assert sim.metrics.count(names.msg_sent("UpdateAck")) == 0
    # A full update below the gapped seq is still news, not a duplicate.
    receiver.receive(Message(src="A", dst="B", payload=UpdatePayload(seq=3)))
    assert sim.metrics.count(names.msg_sent("UpdateAck")) == 1
    assert sim.metrics.count(names.dup_suppressed("UpdatePayload")) == 0


def test_stale_full_update_does_not_rewind_the_receiver():
    # Without per-pair FIFO the network may deliver full seq 2 before full
    # seq 1.  Seq 1 is older state: applying it would drop y, which seq 2
    # still lists, and rewind the anchor under the deltas diffed against 2.
    sim = make_sim(sites=("A", "B"), network=NetworkConfig(fifo_per_pair=False))
    b = GraphBuilder(sim)
    root = b.obj("A", "root", root=True)
    x, y = b.obj("B", "x"), b.obj("B", "y")
    b.link(root, x)
    b.link(root, y)
    receiver = sim.site("B")
    for payload in (
        UpdatePayload(distances=((x, 1), (y, 1)), seq=2),
        UpdatePayload(distances=((x, 1),), seq=1),
    ):
        receiver.receive(Message(src="A", dst="B", payload=payload))
    assert y in receiver.inrefs and "A" in receiver.inrefs.require(y).sources
    assert sim.metrics.count(names.dup_suppressed("UpdatePayload")) == 1
    # Still anchored at 2: delta 3 applies.
    receiver.receive(
        Message(
            src="A", dst="B", payload=UpdateDeltaPayload(distances=((y, 5),), seq=3)
        )
    )
    assert receiver.inrefs.require(y).sources["A"] == 5
    assert sim.metrics.count(names.UPDATE_GAPS_DETECTED) == 0


def test_late_copy_of_a_gapped_delta_after_reanchor_is_a_duplicate():
    sim, b = _anchored_pair()
    receiver = sim.site("B")
    target = b["t"]

    def deliver(payload):
        receiver.receive(Message(src="A", dst="B", payload=payload))

    gapped = UpdateDeltaPayload(distances=((target, 7),), seq=3)
    deliver(gapped)  # seq 2 lost: a gap, one refresh request
    deliver(UpdatePayload(distances=((target, 4),), seq=4))  # re-anchors at 4
    deliver(gapped)  # a fault plan's late copy of delta 3: superseded by 4
    deliver(UpdateDeltaPayload(distances=((target, 6),), seq=5))
    assert receiver.inrefs.require(target).sources["A"] == 6
    assert sim.metrics.count(names.dup_suppressed("UpdateDeltaPayload")) == 1
    assert sim.metrics.count(names.UPDATE_GAPS_DETECTED) == 1
    assert sim.metrics.count(names.UPDATE_REFRESHES_REQUESTED) == 1


# -- audited collection (the golden ``delta@N`` legs) and faults -------------


def run_scenario(seed):
    sim = make_sim(seed=seed, sites=SITES, gc=GcConfig(**TUNING))
    live = build_ring_cycle(sim, SITES)
    doomed = build_ring_cycle(sim, SITES[:4])
    oracle = Oracle(sim)
    for _ in range(2):
        sim.run_gc_round()
        oracle.check_safety()
    doomed.make_garbage(sim)
    for _ in range(30):
        sim.run_gc_round()
        oracle.check_safety()
    assert not oracle.garbage_set()
    for member in live.cycle:
        assert sim.site(member.site).heap.contains(member)
    return sim


@pytest.mark.parametrize("seed", [0, 7])
def test_audited_run_collects_with_deltas_on_the_wire(seed):
    sim = run_scenario(seed)
    assert sim.metrics.count(names.UPDATE_DELTAS_SENT) > 0
    assert sim.metrics.count(names.msg_sent("UpdateDeltaPayload")) > 0


def test_delta_protocol_survives_loss_and_duplication():
    plan = FaultPlan.loss(0.3, end=150.0).merge(
        FaultPlan.duplication(0.3, copies=1, lag=5.0, end=150.0)
    )
    gc = GcConfig(**TUNING)
    sim = Simulation.create(SimulationConfig(seed=3, gc=gc), fault_plan=plan)
    sim.add_sites(SITES, auto_gc=False)
    live = build_ring_cycle(sim, SITES)
    doomed = build_ring_cycle(sim, SITES[:4])
    oracle = Oracle(sim)
    doomed.make_garbage(sim)
    for _ in range(40):
        sim.run_gc_round()
        oracle.check_safety()
        if not oracle.garbage_set():
            break
    assert not oracle.garbage_set()
    for member in live.cycle:
        assert sim.site(member.site).heap.contains(member)
    assert sim.metrics.count(names.UPDATE_DELTAS_SENT) > 0
