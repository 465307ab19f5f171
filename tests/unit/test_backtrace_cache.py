"""Verdict caching, trace coalescing, and call batching (engine extensions).

Topology helper: a two-site cycle p(P) <-> q(Q) anchored live by a root at a
third site R holding a reference to p.  Back traces over it conclude Live
(R's outref for p is clean), so the participants cache the verdict.
"""

import pytest

from repro import GcConfig, NetworkConfig
from repro.core.backtrace.frames import INREF, OUTREF
from repro.core.backtrace.messages import TraceOutcome
from repro.workloads import GraphBuilder

from ..conftest import make_sim

SUSPECT = 9  # any distance above the default threshold of 4


def suspect_all_inrefs(sim):
    for site in sim.sites.values():
        for entry in site.inrefs.entries():
            for source in entry.sources:
                entry.sources[source] = SUSPECT


def prepare(sim):
    """Force suspicion, compute insets, then force suspicion again.

    The first pass makes the local traces mark the cycle's outrefs suspected
    (``traced_clean`` is derived from inref suspicion at trace time); the
    second pass undoes the re-cleaning done by the traces' update messages
    (the anchor site reports a short distance for its inref), so a back
    trace has a suspected path to walk while the anchor's *outref* stays
    clean -- the grounding for a Live verdict.
    """
    suspect_all_inrefs(sim)
    for site_id in sorted(sim.sites):
        sim.sites[site_id].run_local_trace()
    sim.settle()
    suspect_all_inrefs(sim)


def fixed_latency_network():
    return NetworkConfig(min_latency=1.0, max_latency=1.0)


def build_anchored_cycle(sim):
    """p(P) <-> q(Q), anchored by a root at R -> p."""
    b = GraphBuilder(sim)
    p = b.obj("P", "p")
    q = b.obj("Q", "q")
    b.link(p, q)
    b.link(q, p)
    root = b.obj("R", "root", root=True)
    b.link(root, p)
    return b


def run_live_trace(sim, b):
    """Start a trace from P's outref for q; it must conclude Live."""
    trace_id = sim.site("P").engine.start_trace(b["q"])
    assert trace_id is not None
    sim.settle()
    assert sim.trace_outcomes[-1][3] is TraceOutcome.LIVE
    return trace_id


def test_live_trace_caches_verdict_and_skips_retrace():
    sim = make_sim(network=fixed_latency_network())
    b = build_anchored_cycle(sim)
    prepare(sim)
    run_live_trace(sim, b)
    engine = sim.site("P").engine
    # The Live footprint at P covers the visited outref and inref.
    assert engine.cached_live(b["q"])
    assert sim.metrics.count("backtrace.cache_stores") >= 1
    before = sim.metrics.snapshot()
    # Re-initiating answers from the cache: no trace, no messages.
    assert engine.start_trace(b["q"]) is None
    sim.settle()
    delta = sim.metrics.snapshot().diff(before)
    assert delta.get("backtrace.cache_hits", 0) >= 1
    assert delta.get("backtrace.started", 0) == 0
    assert delta.get("messages.BackCall", 0) == 0
    assert delta.get("messages.BackCallBatch", 0) == 0


def test_epoch_bump_between_completion_and_next_trigger_invalidates():
    sim = make_sim(network=fixed_latency_network())
    b = build_anchored_cycle(sim)
    prepare(sim)
    run_live_trace(sim, b)
    engine = sim.site("P").engine
    assert engine.cached_live(b["q"])
    # A distance update for the visited inref bumps its epoch: the snapshot
    # no longer matches and the cached verdict must not answer.
    sim.site("P").inrefs.require(b["p"]).set_source_distance("Q", SUSPECT + 3)
    assert not engine.cached_live(b["q"])
    assert sim.metrics.count("backtrace.cache_invalidated") >= 1
    # A fresh trace runs (and re-derives Live -- the anchor still exists).
    assert engine.start_trace(b["q"]) is not None
    sim.settle()
    assert sim.trace_outcomes[-1][3] is TraceOutcome.LIVE


def test_clean_rule_mid_cached_live_purges_cache():
    sim = make_sim(network=fixed_latency_network())
    b = build_anchored_cycle(sim)
    prepare(sim)
    run_live_trace(sim, b)
    engine = sim.site("P").engine
    assert engine.cached_live(b["q"])
    # The clean rule fires for the visited inref (e.g. a mutator arrived over
    # it): every cached verdict whose footprint includes it is purged.
    engine.notify_cleaned(INREF, b["p"])
    assert len(engine.cache) == 0
    assert not engine.cached_live(b["q"])


def test_structure_change_invalidates_via_entry_epoch():
    sim = make_sim(network=fixed_latency_network())
    b = build_anchored_cycle(sim)
    prepare(sim)
    run_live_trace(sim, b)
    engine = sim.site("P").engine
    assert engine.cached_live(b["q"])
    # A new source on the visited inref is a structure change.
    sim.site("P").inrefs.ensure(b["p"], source="X", distance=1)
    assert not engine.cached_live(b["q"])


def test_trigger_check_answers_from_cache_without_trace():
    sim = make_sim(network=fixed_latency_network())
    b = build_anchored_cycle(sim)
    prepare(sim)
    run_live_trace(sim, b)
    site = sim.site("P")
    # Push the outref past its (already ratcheted) back threshold so the
    # trigger would fire if the cache did not answer.
    entry = site.outrefs.require(b["q"])
    entry.distance = entry.back_threshold + 1
    before = sim.metrics.snapshot()
    assert site.check_backtrace_triggers() == []
    delta = sim.metrics.snapshot().diff(before)
    assert delta.get("backtrace.cache_hits", 0) >= 1
    assert delta.get("backtrace.started", 0) == 0


def test_coalesced_trace_receives_live_from_older_trace():
    # Both traces start before either has a verdict to cache, so the second
    # meets the first's active frame at P, not a cache entry.
    sim = make_sim(network=fixed_latency_network())
    b = build_anchored_cycle(sim)
    prepare(sim)
    t1 = sim.site("P").engine.start_trace(b["q"])
    t2 = sim.site("Q").engine.start_trace(b["p"])
    assert t1 is not None and t2 is not None
    sim.settle()
    verdicts = {outcome[2]: outcome[3] for outcome in sim.trace_outcomes}
    assert verdicts[t1] is TraceOutcome.LIVE
    assert verdicts[t2] is TraceOutcome.LIVE
    assert sim.metrics.count("backtrace.coalesced") >= 1


def test_initiator_crash_timeout_live_is_not_cached():
    """Participants that never hear the outcome assume Live but cache nothing.

    A timeout-assumed Live rests on no evidence; caching it would let a dead
    initiator suppress re-examination for a whole TTL.
    """
    cfg = GcConfig(backtrace_timeout=30.0)
    sim = make_sim(sites=("P", "Q", "R"), network=fixed_latency_network(), gc=cfg)
    b = GraphBuilder(sim)
    p, q, r = b.obj("P", "p"), b.obj("Q", "q"), b.obj("R", "r")
    b.link(p, q)
    b.link(q, r)
    b.link(r, p)
    prepare(sim)
    trace_id = sim.site("P").engine.start_trace(b["q"])
    assert trace_id is not None
    # Let the first BackCall reach R, then lose the initiator: downstream
    # sites keep expanding, time out toward it, and never hear the outcome.
    sim.run_for(1.5)
    sim.site("P").crash()
    sim.run_for(10 * cfg.backtrace_timeout)
    assert sim.metrics.count("backtrace.outcome_timeouts") >= 1
    for site_id in ("Q", "R"):
        engine = sim.sites[site_id].engine
        assert len(engine.cache) == 0
    # No verdict was applied as garbage anywhere.
    for site_id in ("Q", "R"):
        for entry in sim.sites[site_id].inrefs.entries():
            assert not entry.garbage


def test_back_calls_to_same_destination_ship_as_one_batch():
    """Two inrefs with a common source, reached by one fan-out, batch."""
    sim = make_sim(sites=("P", "Q"), network=fixed_latency_network())
    b = GraphBuilder(sim)
    # At Q: a -> c, b -> c, c -> p(P); at P: p -> a and p -> b.  A trace from
    # Q's outref for p fans out to inrefs a and b in one activation -- both
    # sourced from P, so the two BackCalls ride one BackCallBatch.
    a, bb, c = b.obj("Q", "a"), b.obj("Q", "b"), b.obj("Q", "c")
    p = b.obj("P", "p")
    b.link(a, c)
    b.link(bb, c)
    b.link(c, p)
    b.link(p, a)
    b.link(p, bb)
    prepare(sim)
    trace_id = sim.site("Q").engine.start_trace(b["p"])
    assert trace_id is not None
    sim.settle()
    assert sim.metrics.count("messages.BackCallBatch") >= 1
    assert sim.metrics.count("backtrace.calls_batched") >= 2
    # The structure is unanchored garbage: the trace must still conclude so.
    assert sim.trace_outcomes[-1][3] is TraceOutcome.GARBAGE


def test_cached_live_expires_after_ttl():
    cfg = GcConfig(backtrace_cache_ttl_ticks=1)
    sim = make_sim(network=fixed_latency_network(), gc=cfg)
    b = build_anchored_cycle(sim)
    prepare(sim)
    run_live_trace(sim, b)
    engine = sim.site("P").engine
    assert engine.cached_live(b["q"])
    sim.run_for(2 * cfg.local_trace_period)
    assert not engine.cached_live(b["q"])


def test_threshold_change_invalidates_cached_live():
    sim = make_sim(network=fixed_latency_network())
    b = build_anchored_cycle(sim)
    prepare(sim)
    run_live_trace(sim, b)
    engine = sim.site("P").engine
    assert engine.cached_live(b["q"])
    # A tuned suspicion threshold changes which entries count as clean, so
    # the cached verdict's premises no longer hold.
    sim.site("P").inrefs.suspicion_threshold += 1
    assert not engine.cached_live(b["q"])
