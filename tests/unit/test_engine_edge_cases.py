"""Edge cases of the back-trace engine: stale and duplicated calls and
replies, deletions mid-trace, duplicate outcomes, empty insets, and
self-cycles."""

from repro import GcConfig, NetworkConfig
from repro.core.backtrace.messages import BackOutcome, BackReply, TraceOutcome
from repro.ids import FrameId, TraceId
from repro.workloads import GraphBuilder

from ..conftest import make_sim

SUSPECT = 9


def suspect_all(sim):
    """Force every inref source distance above the suspicion threshold."""
    for site in sim.sites.values():
        for entry in site.inrefs.entries():
            for source in entry.sources:
                entry.table.set_source(entry.target, source, SUSPECT)


def suspect_and_trace(sim):
    """Force every inref suspected, then compute insets at every site."""
    suspect_all(sim)
    for site_id in sorted(sim.sites):
        sim.sites[site_id].run_local_trace()
    sim.settle()


def prepare_cycle(sim):
    b = GraphBuilder(sim)
    p, q = b.obj("P", "p"), b.obj("Q", "q")
    b.link(p, q)
    b.link(q, p)
    suspect_and_trace(sim)
    return b


def one_tick_sim(sites=("P", "Q", "R")):
    return make_sim(sites=sites, network=NetworkConfig(min_latency=1.0, max_latency=1.0))


def tap(sim, site_id, kind):
    """Deliver every ``kind`` message for ``site_id`` twice in a row, and
    return the list the originals are logged to."""
    deliver = sim.network._endpoints[site_id]
    log = []

    def twice(message):
        deliver(message)
        if message.kind == kind:
            log.append(message)
            deliver(message)

    sim.network.register(site_id, twice)
    return log


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


def test_duplicated_back_call_is_stepped_once():
    """p(P) <-> q(Q), held live by a root at R.  Q gets every BackCall
    twice: re-stepping the copy would meet the first copy's visited mark and
    answer a spurious Garbage before R's Live comes back."""
    sim = one_tick_sim()
    b = GraphBuilder(sim)
    p, q, root = b.obj("P", "p"), b.obj("Q", "q"), b.obj("R", "root", root=True)
    b.link(p, q)
    b.link(q, p)
    b.link(root, q)
    suspect_and_trace(sim)
    # The local traces' updates re-clean the inref R's root holds; suspect
    # it again so the trace has a path to walk to R's clean outref.
    suspect_all(sim)
    calls = tap(sim, "Q", "BackCall")
    trace_id = sim.site("P").engine.start_trace(q)
    assert trace_id is not None
    sim.settle()
    assert calls
    assert sim.trace_outcomes[-1][2:] == (trace_id, TraceOutcome.LIVE)
    assert not sim.site("Q").inrefs.require(q).garbage


def test_duplicated_back_reply_counts_once():
    """P asks Q and R about p.  Q's Garbage comes back first and is
    delivered twice; counting the copy would close the branch Garbage while
    R's Live, from the root behind r, is still on its way."""
    sim = one_tick_sim()
    b = GraphBuilder(sim)
    p, q, q2 = b.obj("P", "p"), b.obj("Q", "q"), b.obj("Q", "q2")
    r, root = b.obj("R", "r"), b.obj("R", "root", root=True)
    b.link(p, q)
    b.link(q, p)
    b.link(r, p)
    b.link(q2, r)
    b.link(root, q2)
    suspect_and_trace(sim)
    suspect_all(sim)
    replies = tap(sim, "P", "BackReply")
    trace_id = sim.site("P").engine.start_trace(q)
    assert trace_id is not None
    sim.settle()
    assert replies[0].payload.verdict is TraceOutcome.GARBAGE
    assert sim.trace_outcomes[-1][2:] == (trace_id, TraceOutcome.LIVE)
    assert not sim.site("P").inrefs.require(p).garbage


def test_late_back_call_does_not_resurrect_a_finished_trace():
    """A BackCall replayed after its trace finished is dropped: no record,
    no visited mark, no second back-threshold bump."""
    sim = make_sim(sites=("P", "Q"))
    b = prepare_cycle(sim)
    calls = tap(sim, "Q", "BackCall")
    trace_id = sim.site("P").engine.start_trace(b["q"])
    sim.settle()
    assert sim.trace_outcomes[-1][2] == trace_id
    engine = sim.site("Q").engine
    outref = sim.site("Q").outrefs.require(b["p"])
    threshold = outref.back_threshold
    sim.site("Q").receive(calls[0])
    sim.settle()
    assert engine.active_trace_count == 0
    assert outref.back_threshold == threshold
    assert sim.metrics.count("backtrace.stale_calls") == 1


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
