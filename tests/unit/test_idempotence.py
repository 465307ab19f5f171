"""Duplicate delivery of any protocol message must be a no-op (section 4.6).

The at-least-once hardening makes every payload either naturally idempotent
or sequence-deduplicated.  The broad test here records every message a real
run delivers, then replays the whole log a second time and checks that no
site's heap or ioref tables moved; targeted tests force duplicates through a
live protocol exchange with a 100%-duplication fault plan.
"""

import dataclasses
import json
from fractions import Fraction

import pytest

from repro import GcConfig, Simulation, SimulationConfig
from repro.analysis import Oracle, graph_snapshot
from repro.core.collector import NullCollector
from repro.core.termination import (
    TRIAL_PAYLOADS,
    TrialAbort,
    TrialAck,
    TrialCollect,
    TrialMark,
    TrialRescue,
    TrialRescueStart,
)
from repro.gc.insert import InsertDone, InsertRequest, UnpinRequest
from repro.ids import ObjectId
from repro.metrics import names
from repro.mutator.ops import MutatorHop, RemoteCopy
from repro.net.faults import FaultPlan
from repro.net.message import Payload
from repro.site.site import _SEQUENCED_MUTATIONS, Site
from repro.workloads import GraphBuilder, build_ring_cycle

GC = GcConfig(suspicion_threshold=1, assumed_cycle_length=2, back_threshold_increment=1)

#: Payload kinds carrying explicit duplicate-suppression sequence numbers.
SEQUENCED = {
    "InsertRequest",
    "InsertDone",
    "UnpinRequest",
    "RemoteCopy",
    "MutatorHop",
    "UpdatePayload",
    "UpdateDeltaPayload",
}


def _graph_state(sim):
    snap = graph_snapshot(sim)
    snap.pop("time", None)  # the clock may advance while replays settle
    return json.dumps(snap, sort_keys=True)


def _tap_deliveries(sim, sites):
    delivered = []
    for sid in sites:
        original = sim.network._endpoints[sid]

        def tap(msg, original=original):
            delivered.append(msg)
            original(msg)

        sim.network.register(sid, tap)
    return delivered


def _run_traffic():
    """A run that exercises every protocol message kind at least once."""
    sim = Simulation(SimulationConfig(seed=7, gc=GC))
    sites = ["P", "Q", "R"]
    sim.add_sites(sites, auto_gc=False)
    delivered = _tap_deliveries(sim, sites)

    builder = GraphBuilder(sim)
    root = builder.obj("P", root=True)
    a, b, c = builder.obj("P"), builder.obj("Q"), builder.obj("R")
    builder.link(root, a)
    sim.site("P").mutator_add_ref(a, b)  # insert protocol P->Q
    sim.settle()
    sim.site("Q").mutator_add_ref(b, c)  # insert protocol Q->R
    sim.settle()
    sim.site("P").mutator_send_ref("R", b, c)  # remote copy P->R (insert)
    sim.settle()
    sim.site("P").mutator_send_ref("R", b, c)  # again: no insert, unpin P
    sim.settle()
    sim.site("P").mutator_hop("m0", b)  # mutator hop P->Q
    sim.settle()

    ring = build_ring_cycle(sim, sites, rooted=True)
    ring.make_garbage(sim)
    oracle = Oracle(sim)
    for _ in range(30):
        sim.run_gc_round()
        oracle.check_safety()
        if not oracle.garbage_set():
            break
    sim.settle()
    assert not oracle.garbage_set()
    return sim, oracle, delivered


def test_replaying_the_entire_delivery_log_changes_nothing():
    sim, oracle, delivered = _run_traffic()
    kinds = {message.kind for message in delivered}
    assert SEQUENCED | {"BackCall", "BackReply", "BackOutcome"} <= kinds

    before = _graph_state(sim)
    for message in list(delivered):
        sim.site(message.dst).receive(message)
    sim.settle()  # re-acks triggered by replayed updates drain harmlessly
    oracle.check_safety()
    assert _graph_state(sim) == before

    # Every replayed sequenced payload was recognized as a duplicate...
    replayed = {}
    for message in delivered:
        if message.kind in SEQUENCED and getattr(message.payload, "seq", -1) > 0:
            replayed[message.kind] = replayed.get(message.kind, 0) + 1
    for kind, count in replayed.items():
        assert sim.metrics.count(names.dup_suppressed(kind)) >= count, kind
    # ...and late back-trace traffic bounced off the finished-trace records.
    stale = (
        sim.metrics.count("backtrace.stale_calls")
        + sim.metrics.count("backtrace.stale_replies")
        + sim.metrics.count(names.dup_suppressed("BackCall"))
        + sim.metrics.count(names.dup_suppressed("BackReply"))
        + sim.metrics.count(names.dup_suppressed("BackOutcome"))
    )
    assert stale > 0


def test_collection_is_correct_when_every_message_is_duplicated():
    """100% duplication, live: dedup works mid-protocol, not just post-hoc."""
    plan = FaultPlan.duplication(1.0, copies=1, lag=3.0).named("dup-all")
    sim = Simulation.create(SimulationConfig(seed=11, gc=GC), fault_plan=plan)
    sites = ["P", "Q", "R"]
    sim.add_sites(sites, auto_gc=False)
    doomed = build_ring_cycle(sim, sites, rooted=True)
    live = build_ring_cycle(sim, sites[::-1], rooted=True)
    sim.settle()
    doomed.make_garbage(sim)
    oracle = Oracle(sim)
    for _ in range(30):
        sim.run_gc_round()
        oracle.check_safety()
        if not oracle.garbage_set():
            break
    sim.settle()
    oracle.check_safety()
    assert not oracle.garbage_set()
    for member in live.cycle:
        assert sim.site(member.site).heap.contains(member)
    suppressed = sim.metrics.counts_with_prefix("protocol.dup_suppressed.")
    assert suppressed, "duplication plan produced no suppressed duplicates"


# -- the stamping contract: every sequenced payload has with_seq() ------------------


def test_with_seq_stamps_exactly_what_dataclasses_replace_would():
    oid, other = ObjectId("Q", 3), ObjectId("R", 5)
    trial = ("P", 2)
    samples = [
        InsertRequest(target=oid, pin_holder="R", release_owner_custody=True),
        InsertDone(target=oid),
        UnpinRequest(target=oid),
        RemoteCopy(ref=oid, dest_holder=other, pin_holder="P"),
        MutatorHop(mutator="m1", target=oid),
        TrialMark(trial=trial, targets=(oid, other), credit=Fraction(1, 4)),
        TrialRescueStart(trial=trial, member_sites=("P", "Q"), credit=Fraction(1, 8)),
        TrialRescue(
            trial=trial, targets=(oid,), member_sites=("P",), credit=Fraction(1, 2)
        ),
        TrialAck(
            trial=trial, phase="mark", credit=Fraction(3, 4), joined=True, dirty=True
        ),
        TrialCollect(trial=trial),
        TrialAbort(trial=trial),
    ]
    assert {type(p) for p in samples} == set(_SEQUENCED_MUTATIONS + TRIAL_PAYLOADS)
    for payload in samples:
        stamped = payload.with_seq(9)
        assert type(stamped) is type(payload)
        assert stamped == dataclasses.replace(payload, seq=9)
        assert payload.seq == -1  # the original is untouched


def test_site_rejects_a_sequenced_payload_type_without_with_seq():
    class Unstampable(Payload):
        seq = -1

    class Backend(NullCollector):
        def sequenced_payload_types(self):
            return (Unstampable,)

    sim = Simulation(SimulationConfig(seed=1, gc=GC))
    with pytest.raises(TypeError, match="Unstampable has no with_seq"):
        Site(
            "P", sim.scheduler, sim.network, GC, auto_gc=False, collector_factory=Backend
        )
