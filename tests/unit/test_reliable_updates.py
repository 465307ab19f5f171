"""At-least-once update channel: sequencing, acks, retransmission, repair."""

import pytest

from repro import GcConfig, Simulation, SimulationConfig
from repro.gc.update import UpdateDeltaPayload, UpdatePayload
from repro.metrics import names
from repro.net.faults import FaultPlan
from repro.net.reliability import DedupWindow


def make_sim(gc=None, plan=None, seed=1):
    sim = Simulation.create(
        SimulationConfig(seed=seed, gc=gc or GcConfig()), fault_plan=plan
    )
    sim.add_sites(["A", "B"], auto_gc=False)
    return sim


def empty_delta():
    return UpdateDeltaPayload()


# -- DedupWindow -------------------------------------------------------------


def test_dedup_window_exact_under_fifo():
    window = DedupWindow()
    assert not window.seen(1)
    assert not window.seen(2)
    assert window.seen(2)
    assert window.seen(1)


def test_dedup_window_exact_with_gaps():
    window = DedupWindow()
    assert not window.seen(3)
    assert not window.seen(1)
    assert window.seen(3)
    assert not window.seen(2)
    assert window.seen(1) and window.seen(2)
    assert not window.pending_gaps


# -- the happy path ----------------------------------------------------------


def test_update_is_sequenced_acked_and_timer_cancelled():
    sim = make_sim()
    sender, receiver = sim.site("A"), sim.site("B")
    sender._send_update("B", empty_delta())
    sender._send_update("B", empty_delta())
    assert sorted(sender._pending_updates["B"]) == [1, 2]
    sim.settle()
    # Both acks arrived: nothing pending, nothing retransmitted.
    assert not sender._pending_updates
    assert sender._update_seq["B"] == 2
    assert sim.metrics.count(names.UPDATE_RETRANSMITS) == 0
    assert receiver._update_dedup["A"].high_water == 2


# -- duplicates --------------------------------------------------------------


def test_duplicated_update_is_suppressed_but_reacked():
    from repro.net.faults import LinkFault

    plan = FaultPlan(
        links=(
            LinkFault(
                src="A", dst="B", duplicate_probability=1.0, duplicate_lag=2.0
            ),
        )
    )
    sim = make_sim(plan=plan)
    sender = sim.site("A")
    sender._send_update("B", UpdatePayload())
    sim.settle()
    assert sim.metrics.count(names.dup_suppressed("UpdatePayload")) == 1
    # Both deliveries were acked (either ack may be the one that survives a
    # lossy link), and the first ack already cleared the pending entry.
    assert sim.metrics.count(names.msg_sent("UpdateAck")) == 2
    assert not sender._pending_updates


# -- loss and retransmission -------------------------------------------------


def test_lost_update_is_retransmitted_as_full_until_acked():
    gc = GcConfig(update_retransmit_timeout=10.0)
    plan = FaultPlan.loss(1.0, end=25.0, src="A", dst="B")
    sim = make_sim(gc=gc, plan=plan)
    sender = sim.site("A")
    sender._send_update("B", empty_delta())
    # t=0 and t=10 sends die in the window; the t=30 retransmission lands.
    sim.run_until(100.0)
    sim.settle()
    assert not sender._pending_updates
    assert sim.metrics.count(names.UPDATE_RETRANSMITS) == 2
    assert sim.metrics.count(names.UPDATE_RETRANSMITS_ABANDONED) == 0
    assert sim.metrics.count(names.msg_dropped_kind("UpdateDeltaPayload")) == 1
    assert sim.metrics.count(names.msg_dropped_kind("UpdatePayload")) == 1
    assert sim.metrics.count(names.msg_delivered_kind("UpdatePayload")) == 1


def test_retransmit_backoff_doubles_and_caps():
    sim = make_sim(gc=GcConfig(update_retransmit_timeout=10.0))
    sender = sim.site("A")
    delays = []
    original = sender.scheduler.schedule

    def spying_schedule(delay, fn, **kwargs):
        if kwargs.get("label", "").startswith("update-retransmit"):
            delays.append(delay)
        return original(delay, fn, **kwargs)

    sender.scheduler.schedule = spying_schedule
    for attempts in range(6):
        sender._send_update("B", empty_delta(), attempts=attempts)
    sender.scheduler.schedule = original
    sim.settle()
    assert delays == [10.0, 20.0, 40.0, 80.0, 80.0, 80.0]  # capped at 8x


def test_full_update_absorbs_pending_lower_sequences():
    plan = FaultPlan.loss(1.0, src="A", dst="B")  # nothing ever delivers
    sim = make_sim(plan=plan)
    sender = sim.site("A")
    sender._send_update("B", empty_delta())
    sender._send_update("B", empty_delta())
    assert sorted(sender._pending_updates["B"]) == [1, 2]
    sender._send_update("B", sender._build_full_update("B"))
    # The full state transfer supersedes both unacked deltas.
    assert sorted(sender._pending_updates["B"]) == [3]


# -- abandonment and desynced-peer repair ------------------------------------


def test_abandoned_chain_marks_peer_and_next_tick_repairs_it():
    gc = GcConfig(update_retransmit_timeout=10.0, update_retransmit_limit=5)
    plan = FaultPlan.loss(1.0, end=400.0, src="A", dst="B")
    sim = make_sim(gc=gc, plan=plan)
    sender = sim.site("A")
    sender._send_update("B", empty_delta())
    # Chain: sends at t=0,10,30,70,150,230; gives up at t=310 (attempts > 5).
    sim.run_until(350.0)
    assert sim.metrics.count(names.UPDATE_RETRANSMITS_ABANDONED) == 1
    assert sender._desynced_peers == {"B"}
    assert not sender._pending_updates
    # Next GC tick (after the window heals) resends a full update even though
    # the incremental planner has nothing new to trace.
    sim.run_until(450.0)
    sender.run_local_trace()
    sim.settle()
    assert not sender._desynced_peers
    assert not sender._pending_updates
    assert sim.metrics.count(names.msg_delivered_kind("UpdatePayload")) == 1


def test_crashed_sender_stops_retransmitting():
    gc = GcConfig(update_retransmit_timeout=10.0)
    plan = FaultPlan.loss(1.0, end=100.0, src="A", dst="B")
    sim = make_sim(gc=gc, plan=plan)
    sender = sim.site("A")
    sender._send_update("B", empty_delta())
    sim.run_until(5.0)
    sender.crash()
    sim.run_until(200.0)
    sim.settle()
    assert sim.metrics.count(names.UPDATE_RETRANSMITS) == 0
    assert sim.metrics.count(names.UPDATE_RETRANSMITS_ABANDONED) == 0
