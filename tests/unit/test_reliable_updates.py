"""At-least-once update channel: sequencing, acks, retransmission, repair.

The channel keeps one anchor per sending peer (receiver side) and one
retransmission timer per receiving peer (sender side); these tests observe
both through the messages the sites send and the counters they bump.
"""

from repro import GcConfig, Simulation, SimulationConfig
from repro.gc.update import UpdateAck, UpdateDeltaPayload, UpdatePayload
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


def record_sends(site, payload_type):
    """(time, payload) for every ``payload_type`` ``site`` sends from now on."""
    sent = []
    original = site.send

    def recording_send(dst, payload):
        if isinstance(payload, payload_type):
            sent.append((site.scheduler.now, payload))
        original(dst, payload)

    site.send = recording_send
    return sent


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
    stamped = record_sends(sender, UpdateDeltaPayload)
    acks = record_sends(receiver, UpdateAck)
    sender._send_update("B", empty_delta())
    sender._send_update("B", empty_delta())
    sim.settle()
    assert [payload.seq for _, payload in stamped] == [1, 2]
    # Each in-order delta moves the anchor, and each ack carries it.
    assert [ack.seq for _, ack in acks] == [1, 2]
    # The ack of seq 2 covers the last update sent: the timer was cancelled,
    # so settling past its 40-tick deadline retransmitted nothing.
    assert sim.metrics.count(names.UPDATE_RETRANSMITS) == 0


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
    acks = record_sends(sim.site("B"), UpdateAck)
    sim.site("A")._send_update("B", UpdatePayload())
    sim.settle()
    assert sim.metrics.count(names.dup_suppressed("UpdatePayload")) == 1
    # Both deliveries were acked with the anchor (either ack may be the one
    # that survives a lossy link), and nothing was retransmitted.
    assert [ack.seq for _, ack in acks] == [1, 1]
    assert sim.metrics.count(names.UPDATE_RETRANSMITS) == 0


# -- loss and retransmission -------------------------------------------------


def test_lost_update_is_retransmitted_as_full_until_acked():
    plan = FaultPlan.loss(1.0, end=100.0, src="A", dst="B")
    sim = make_sim(plan=plan)
    sender = sim.site("A")
    sender._send_update("B", empty_delta())
    # t=0 and t=40 sends die in the window; the t=120 retransmission lands.
    sim.run_until(200.0)
    sim.settle()
    assert sim.metrics.count(names.UPDATE_RETRANSMITS) == 2
    assert sim.metrics.count(names.UPDATE_RETRANSMITS_ABANDONED) == 0
    assert sim.metrics.count(names.msg_dropped_kind("UpdateDeltaPayload")) == 1
    assert sim.metrics.count(names.msg_dropped_kind("UpdatePayload")) == 1
    assert sim.metrics.count(names.msg_delivered_kind("UpdatePayload")) == 1


def test_retransmit_backoff_doubles_and_caps():
    plan = FaultPlan.loss(1.0, src="A", dst="B")  # nothing ever delivers
    sim = make_sim(plan=plan)
    sender = sim.site("A")
    fulls = record_sends(sender, UpdatePayload)
    sender._send_update("B", empty_delta())
    sim.run_until(1239.0)
    # Timeouts of 40, 80, 160, then capped at 8x: 320, 320 ...
    assert [time for time, _ in fulls] == [40.0, 120.0, 280.0, 600.0, 920.0]
    assert sim.metrics.count(names.UPDATE_RETRANSMITS) == 5
    assert sim.metrics.count(names.UPDATE_RETRANSMITS_ABANDONED) == 0
    # ... and one more 320 later the sixth expiry gives up.
    sim.run_until(1240.0)
    assert sim.metrics.count(names.UPDATE_RETRANSMITS) == 5
    assert sim.metrics.count(names.UPDATE_RETRANSMITS_ABANDONED) == 1


def test_full_update_absorbs_pending_lower_sequences():
    plan = FaultPlan.loss(1.0, src="A", dst="B")  # nothing ever delivers
    sim = make_sim(plan=plan)
    sender = sim.site("A")
    sender._send_update("B", empty_delta())
    sim.run_until(10.0)
    sender._send_update("B", empty_delta())
    sim.run_until(20.0)
    sender._send_update("B", sender._build_full_update("B"))
    # The full state transfer supersedes both unacked deltas: the timer
    # armed at t=0 for t=40 was re-armed for t=60.
    sim.run_until(59.0)
    assert sim.metrics.count(names.UPDATE_RETRANSMITS) == 0
    sim.run_until(60.0)
    assert sim.metrics.count(names.UPDATE_RETRANSMITS) == 1


def test_a_delta_behind_an_unacked_update_starts_no_second_timer():
    plan = FaultPlan.loss(1.0, src="A", dst="B")  # nothing ever delivers
    sim = make_sim(plan=plan)
    sender = sim.site("A")
    sender._send_update("B", empty_delta())
    sim.run_until(45.0)
    # t=40: the first retransmission, a full whose timer runs until t=120.
    assert sim.metrics.count(names.UPDATE_RETRANSMITS) == 1
    sender._send_update("B", empty_delta())
    # The delta rides the running timer rather than starting a fresh
    # 40-tick ladder of its own, which would fire at t=85.
    sim.run_until(119.0)
    assert sim.metrics.count(names.UPDATE_RETRANSMITS) == 1
    sim.run_until(120.0)
    assert sim.metrics.count(names.UPDATE_RETRANSMITS) == 2


# -- abandonment and desynced-peer repair ------------------------------------


def test_abandoned_chain_marks_peer_and_next_tick_repairs_it():
    plan = FaultPlan.loss(1.0, end=1000.0, src="A", dst="B")
    sim = make_sim(plan=plan)
    sender = sim.site("A")
    sender._send_update("B", empty_delta())
    # Chain: sends at t=0,40,120,280,600,920; gives up at t=1240.
    sim.run_until(1300.0)
    assert sim.metrics.count(names.UPDATE_RETRANSMITS_ABANDONED) == 1
    assert sim.metrics.count(names.msg_sent("UpdatePayload")) == 5
    # Next GC tick (after the window heals) resends a full update even though
    # the incremental planner has nothing new to trace.
    sender.run_local_trace()
    sim.settle()
    assert sim.metrics.count(names.msg_sent("UpdatePayload")) == 6
    assert sim.metrics.count(names.msg_delivered_kind("UpdatePayload")) == 1
    # Repaired and acked: the next tick has nothing to resend.
    sender.run_local_trace()
    sim.settle()
    assert sim.metrics.count(names.msg_sent("UpdatePayload")) == 6
    assert sim.metrics.count(names.UPDATE_RETRANSMITS_ABANDONED) == 1


def test_crashed_sender_stops_retransmitting():
    plan = FaultPlan.loss(1.0, end=100.0, src="A", dst="B")
    sim = make_sim(plan=plan)
    sender = sim.site("A")
    sender._send_update("B", empty_delta())
    sim.run_until(5.0)
    sender.crash()
    sim.run_until(200.0)
    sim.settle()
    assert sim.metrics.count(names.UPDATE_RETRANSMITS) == 0
    assert sim.metrics.count(names.UPDATE_RETRANSMITS_ABANDONED) == 0


def test_crashed_senders_expired_timer_leaves_the_peer_desynced():
    """A sender down when its retransmission timer fires has no timer left
    after recovery; it marks the peer desynced instead, so the receiver it
    left behind is repaired on the next GC tick, not at the periodic full
    refresh."""
    plan = FaultPlan.loss(1.0, end=100.0, src="A", dst="B")
    sim = make_sim(plan=plan)
    sender = sim.site("A")
    sender._send_update("B", empty_delta())  # dies on the lossy link
    sim.run_until(5.0)
    sender.crash()  # before any ack; the timer fires at t=40
    sim.run_until(200.0)
    sender.recover()
    assert sim.check_invariants() == []
    sim.run_until(200.0 + sim.config.gc.local_trace_period + 20.0)
    assert sim.metrics.count(names.msg_delivered_kind("UpdatePayload")) == 1
    assert sim.metrics.count(names.UPDATE_RETRANSMITS) == 0
    assert sim.check_invariants() == []
