"""Edge cases of the back-trace engine: stale replies, deletions mid-trace,
duplicate outcomes, empty insets, and self-cycles."""

from repro import GcConfig
from repro.core.backtrace.messages import BackOutcome, BackReply, TraceOutcome
from repro.ids import FrameId, TraceId
from repro.workloads import GraphBuilder

from ..conftest import make_sim

SUSPECT = 9


def prepare_cycle(sim):
    b = GraphBuilder(sim)
    p, q = b.obj("P", "p"), b.obj("Q", "q")
    b.link(p, q)
    b.link(q, p)
    for site in sim.sites.values():
        for entry in site.inrefs.entries():
            for source in entry.sources:
                entry.table.set_source(entry.target, source, SUSPECT)
    for site_id in sorted(sim.sites):
        sim.sites[site_id].run_local_trace()
    sim.settle()
    return b


def test_stale_reply_for_unknown_frame_ignored():
    sim = make_sim(sites=("P", "Q"))
    prepare_cycle(sim)
    ghost_reply = BackReply(
        trace_id=TraceId("Q", 77),
        reply_to=FrameId("P", 12345),
        verdict=TraceOutcome.LIVE,
        participants=frozenset({"Q"}),
    )
    sim.site("Q").send("P", ghost_reply)
    sim.settle()
    assert sim.metrics.count("backtrace.stale_replies") == 1


def test_duplicate_outcome_harmless():
    sim = make_sim(sites=("P", "Q"))
    b = prepare_cycle(sim)
    trace_id = sim.site("P").engine.start_trace(b["q"])
    sim.settle()
    # Re-deliver the outcome: the record is gone, so nothing happens.
    sim.site("P").send("Q", BackOutcome(trace_id=trace_id, verdict=TraceOutcome.GARBAGE))
    sim.settle()
    assert sim.site("Q").inrefs.require(b["q"]).garbage


def test_outcome_for_unknown_trace_ignored():
    sim = make_sim(sites=("P", "Q"))
    prepare_cycle(sim)
    sim.site("P").send(
        "Q", BackOutcome(trace_id=TraceId("P", 404), verdict=TraceOutcome.GARBAGE)
    )
    sim.settle()  # must not raise


def test_outref_with_empty_inset_answers_garbage():
    """An outref reachable from nothing (inset empty) has no backward path:
    the local step closes immediately as Garbage."""
    sim = make_sim(sites=("P", "Q"))
    b = GraphBuilder(sim)
    p, q = b.obj("P", "p"), b.obj("Q", "q")
    b.link(p, q)  # one-way only: P's outref q exists, but p is garbage too
    for site in sim.sites.values():
        for entry in site.inrefs.entries():
            for source in entry.sources:
                entry.table.set_source(entry.target, source, SUSPECT)
    for site_id in sorted(sim.sites):
        sim.sites[site_id].run_local_trace()
    sim.settle()
    # p was unreferenced: P's local trace already collected it and trimmed
    # the outref, so there is nothing to trace from -- which is the point:
    # acyclic garbage never needs back tracing.
    assert not sim.site("P").heap.contains(p)
    assert b["q"] not in sim.site("P").outrefs


def test_self_cycle_object_with_remote_holder():
    """An object referencing itself plus a remote cycle partner."""
    sim = make_sim(sites=("P", "Q"))
    b = GraphBuilder(sim)
    p, q = b.obj("P", "p"), b.obj("Q", "q")
    b.link(p, p)  # self loop
    b.link(p, q)
    b.link(q, p)
    prepare = prepare_cycle  # reuse suspicion helper pattern
    for site in sim.sites.values():
        for entry in site.inrefs.entries():
            for source in entry.sources:
                entry.table.set_source(entry.target, source, SUSPECT)
    for site_id in sorted(sim.sites):
        sim.sites[site_id].run_local_trace()
    sim.settle()
    trace_id = sim.site("P").engine.start_trace(b["q"])
    assert trace_id is not None
    sim.settle()
    assert sim.trace_outcomes[-1][3] is TraceOutcome.GARBAGE
    sim.run_gc_round()
    assert not sim.site("P").heap.contains(p)
    assert not sim.site("Q").heap.contains(q)


def test_ioref_deleted_while_other_trace_active():
    """The Boyapati fix: one trace's outcome deletes iorefs while another
    trace is active there; the second trace still completes via its frames."""
    sim = make_sim(sites=("P", "Q"), gc=GcConfig(backtrace_timeout=100.0))
    b = prepare_cycle(sim)
    engine_p = sim.site("P").engine
    engine_q = sim.site("Q").engine
    first = engine_p.start_trace(b["q"])
    second = engine_q.start_trace(b["p"])
    assert first is not None and second is not None
    sim.settle()
    sim.run_for(1000.0)  # let any timeouts resolve stragglers
    # Both traces reached a verdict; no frames are stuck anywhere.
    assert engine_p.active_trace_count == 0
    assert engine_q.active_trace_count == 0
    finished = {outcome[2] for outcome in sim.trace_outcomes}
    assert {first, second} <= finished


def test_trace_ids_unique_per_initiator():
    sim = make_sim(sites=("P", "Q"))
    b = prepare_cycle(sim)
    first = sim.site("P").engine.start_trace(b["q"])
    sim.settle()
    sim.run_for(1500.0)
    # Restore suspicion (the Live/garbage outcome may have flagged/cleaned).
    for entry in sim.site("P").outrefs.entries():
        entry.traced_clean = False
    second = sim.site("P").engine.start_trace(b["q"])
    if second is not None:
        assert second != first
