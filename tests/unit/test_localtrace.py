"""Unit tests for the local collector (sections 2, 3, 5)."""

import dataclasses

from repro import GcConfig
from repro.gc.localtrace import LocalCollector
from repro.gc.inrefs import InrefTable
from repro.gc.outrefs import OutrefTable
from repro.ids import ObjectId
from repro.metrics import MetricsRecorder
from repro.store.heap import Heap


def make_collector(threshold=4, algorithm="bottomup"):
    config = GcConfig(suspicion_threshold=threshold, backinfo_algorithm=algorithm)
    heap = Heap("Q")
    inrefs = InrefTable("Q", threshold, config.initial_back_threshold)
    outrefs = OutrefTable("Q", config.initial_back_threshold)
    collector = LocalCollector(heap, inrefs, outrefs, config, metrics=MetricsRecorder())
    return collector


def test_sweeps_unreachable_objects():
    c = make_collector()
    root = c.heap.alloc(persistent_root=True)
    kept = c.heap.alloc()
    root.add_ref(kept.oid)
    lost = c.heap.alloc()
    result = c.run()
    assert lost.oid in result.swept
    assert c.heap.contains(kept.oid)


def test_inrefs_are_roots():
    c = make_collector()
    held = c.heap.alloc()
    c.inrefs.ensure(held.oid, source="P", distance=1)
    result = c.run()
    assert held.oid not in result.swept


def test_garbage_flagged_inref_is_not_a_root():
    c = make_collector()
    held = c.heap.alloc()
    entry = c.inrefs.ensure(held.oid, source="P", distance=9)
    entry.garbage = True
    result = c.run()
    assert held.oid in result.swept
    # The entry itself survives for referential integrity (section 4.5).
    assert held.oid in c.inrefs


def test_variable_roots_keep_objects():
    c = make_collector()
    pinned = c.heap.alloc()
    c.heap.pin_variable(pinned.oid)
    result = c.run()
    assert pinned.oid not in result.swept


def test_outref_distance_from_persistent_root():
    c = make_collector()
    root = c.heap.alloc(persistent_root=True)
    remote = ObjectId("R", 0)
    root.add_ref(remote)
    c.outrefs.ensure(remote)
    result = c.run()
    entry = c.outrefs.require(remote)
    assert entry.distance == 1
    assert entry.is_clean
    assert result.updates_by_site["R"].distances == ((remote, 1),)


def test_outref_distance_from_inref_chain():
    c = make_collector(threshold=4)
    held = c.heap.alloc()
    remote = ObjectId("R", 0)
    held.add_ref(remote)
    c.inrefs.ensure(held.oid, source="P", distance=3)
    c.outrefs.ensure(remote)
    c.run()
    assert c.outrefs.require(remote).distance == 4
    assert c.outrefs.require(remote).is_clean  # 3 <= threshold: clean trace


def test_suspected_outref_gets_inset_and_distance():
    c = make_collector(threshold=4)
    held = c.heap.alloc()
    remote = ObjectId("R", 0)
    held.add_ref(remote)
    c.inrefs.ensure(held.oid, source="P", distance=7)  # suspected
    c.outrefs.ensure(remote)
    c.run()
    entry = c.outrefs.require(remote)
    assert not entry.is_clean
    assert entry.inset == {held.oid}
    assert entry.distance == 8
    inref_entry = c.inrefs.require(held.oid)
    assert inref_entry.outset == {remote}


def test_untraced_outref_is_trimmed_and_reported():
    c = make_collector()
    remote = ObjectId("R", 0)
    c.outrefs.ensure(remote)  # nothing in the heap references it
    result = c.run()
    assert remote not in c.outrefs
    # In delta mode the first trace is a full state transfer: the trim is
    # reported by *omission* (receiver-side prune), not an explicit removal.
    payload = result.updates_by_site["R"]
    assert payload.full
    assert remote not in dict(payload.distances)
    # A receiver holding the inref actually drops this source.
    from repro.gc.inrefs import InrefTable
    from repro.gc.update import apply_update

    peer = InrefTable("R", 4, 0)
    peer.ensure(remote, source="Q", distance=1)
    apply_update(peer, "Q", payload)
    # Sole source pruned away -> the inref itself dies (acyclic garbage).
    assert remote not in peer


def test_untraced_outref_trim_travels_as_delta_removal():
    # Past the first (periodic-full) trace, a trimmed-but-never-shipped
    # outref must still produce an explicit delta removal: the peer learned
    # of us as a source through the insert protocol, not through updates.
    c = make_collector()
    c.run()  # trace 1: periodic full (anchors the shipped state)
    remote = ObjectId("R", 0)
    c.outrefs.ensure(remote)
    result = c.run()
    assert remote not in c.outrefs
    payload = result.updates_by_site["R"]
    assert not payload.full
    assert payload.removals == (remote,)


def test_pinned_outref_survives_trim():
    c = make_collector()
    remote = ObjectId("R", 0)
    c.outrefs.ensure(remote).pin()
    result = c.run()
    assert remote in c.outrefs
    assert not result.removals or remote not in result.removals


def test_variable_outref_survives_and_is_clean():
    c = make_collector(threshold=4)
    remote = ObjectId("R", 0)
    c.outrefs.ensure(remote, clean=False)
    c.run(variable_outrefs=[remote])
    entry = c.outrefs.require(remote)
    assert entry.is_clean
    assert entry.distance == 1


def test_distance_not_resent_when_unchanged():
    c = make_collector()
    root = c.heap.alloc(persistent_root=True)
    remote = ObjectId("R", 0)
    root.add_ref(remote)
    c.outrefs.ensure(remote)
    first = c.run()
    second = c.run()
    assert "R" in first.updates_by_site
    assert "R" not in second.updates_by_site


def test_mixed_clean_and_suspected_reachability():
    """An object reachable from both a clean and a suspected inref is clean,
    and the suspected inref's outset stops at it."""
    c = make_collector(threshold=4)
    shared = c.heap.alloc()
    remote = ObjectId("R", 0)
    shared.add_ref(remote)
    suspect_head = c.heap.alloc()
    suspect_head.add_ref(shared.oid)
    c.inrefs.ensure(shared.oid, source="P", distance=2)  # clean
    c.inrefs.ensure(suspect_head.oid, source="S", distance=9)  # suspected
    c.outrefs.ensure(remote)
    c.run()
    entry = c.outrefs.require(remote)
    assert entry.is_clean
    assert c.inrefs.require(suspect_head.oid).outset == frozenset()


def test_barrier_clean_inref_traced_as_clean_root():
    c = make_collector(threshold=4)
    held = c.heap.alloc()
    remote = ObjectId("R", 0)
    held.add_ref(remote)
    entry = c.inrefs.ensure(held.oid, source="P", distance=9)
    entry.barrier_clean = True
    c.outrefs.ensure(remote, clean=False)
    c.run()
    out = c.outrefs.require(remote)
    assert out.is_clean
    assert out.distance == 10  # distance still propagates the big estimate
    # The barrier flag expires with the trace.
    assert not c.inrefs.require(held.oid).barrier_clean


def test_commit_replays_barrier_on_new_copy():
    c = make_collector(threshold=4)
    held = c.heap.alloc()
    remote = ObjectId("R", 0)
    held.add_ref(remote)
    c.inrefs.ensure(held.oid, source="P", distance=9)
    c.outrefs.ensure(remote, clean=False)
    result = c.compute()
    c.commit(result, replay_barrier_inrefs=[held.oid])
    assert c.inrefs.require(held.oid).barrier_clean
    assert c.outrefs.require(remote).barrier_clean


def test_objects_allocated_in_window_survive_commit():
    c = make_collector()
    result = c.compute()
    newborn = c.heap.alloc()  # allocated mid-window
    c.commit(result)
    assert c.heap.contains(newborn.oid)


def test_outref_created_in_window_survives_commit():
    c = make_collector()
    result = c.compute()
    late = ObjectId("R", 9)
    c.outrefs.ensure(late, clean=True)
    c.commit(result)
    assert late in c.outrefs


def test_independent_algorithm_config_selected():
    c = make_collector(algorithm="independent")
    held = c.heap.alloc()
    remote = ObjectId("R", 0)
    held.add_ref(remote)
    c.inrefs.ensure(held.oid, source="P", distance=9)
    c.outrefs.ensure(remote)
    c.run()
    assert c.outrefs.require(remote).inset == {held.oid}


def test_suspected_cycle_objects_survive_sweep():
    c = make_collector(threshold=4)
    a, b = c.heap.alloc(), c.heap.alloc()
    a.add_ref(b.oid)
    b.add_ref(a.oid)
    c.inrefs.ensure(a.oid, source="P", distance=9)
    result = c.run()
    assert not result.swept
    assert c.heap.contains(a.oid) and c.heap.contains(b.oid)


# -- the planner's cache ------------------------------------------------------


def _inref_mix(c):
    near, far, flagged, dead = (c.heap.alloc() for _ in range(4))
    c.inrefs.ensure(near.oid, source="P", distance=2)
    c.inrefs.ensure(far.oid, source="P", distance=9)
    c.inrefs.ensure(flagged.oid, source="P", distance=9).barrier_clean = True
    c.inrefs.ensure(dead.oid, source="P", distance=1).garbage = True
    return near, far, flagged, dead


def test_plan_reads_only_the_epochs():
    c = make_collector(threshold=4)
    near, far, flagged, dead = _inref_mix(c)
    c.run()
    assert c.plan_trace() == "skip"
    c.inrefs.require(far.oid).add_source("Q", 12)  # no new minimum
    assert c.plan_trace() == "skip"
    c.inrefs.set_source(far.oid, "P", 8)
    assert c.plan_trace() == "distance"
    c.inrefs.set_source(near.oid, "P", 6)  # crosses the threshold
    assert c.plan_trace() == "distance"
    c.heap.alloc()
    assert c.plan_trace() == "full"


def test_interleaved_commit_caches_nothing():
    c = make_collector(threshold=4)
    near, far, flagged, dead = _inref_mix(c)
    result = c.compute()
    c.inrefs.set_source(far.oid, "P", 1)  # lands in the trace window
    c.commit(result)
    assert c._cached is None
    assert c.plan_trace() == "full"


# -- quiet-tick prediction (the parallel planner's lookahead source) ---------


def make_predicting_collector():
    config = GcConfig(full_trace_every_n=4, full_update_period=2)
    heap = Heap("Q")
    inrefs = InrefTable(
        "Q", config.suspicion_threshold, config.initial_back_threshold
    )
    outrefs = OutrefTable("Q", config.initial_back_threshold)
    return LocalCollector(
        heap, inrefs, outrefs, config, metrics=MetricsRecorder()
    )


def test_predict_quiet_ticks_needs_a_cached_trace():
    c = make_predicting_collector()
    assert c.predict_quiet_ticks() == 0


def test_predict_quiet_ticks_extends_across_silent_forced_fulls():
    c = make_predicting_collector()
    root = c.heap.alloc(persistent_root=True)
    kept = c.heap.alloc()
    root.add_ref(kept.oid)
    c.run()
    # Budget of 4 incremental skips, then one forced full that (with the
    # outref epoch unchanged) ships nothing and is not the
    # periodic refresh (full_traces_run would be 2, refresh lands on odd
    # counts under full_update_period=2), buying 1 + 4 more quiet ticks.
    assert c.predict_quiet_ticks() == 4 + (1 + 4)


def test_predict_quiet_ticks_zero_after_any_epoch_change():
    c = make_predicting_collector()
    c.heap.alloc(persistent_root=True)
    c.run()
    assert c.predict_quiet_ticks() > 0
    c.heap.alloc()  # heap mutation epoch moves; the cache no longer applies
    assert c.predict_quiet_ticks() == 0


def test_predict_quiet_ticks_zero_when_variable_roots_changed():
    c = make_predicting_collector()
    held = c.heap.alloc(persistent_root=True)
    c.run()
    assert c.predict_quiet_ticks() > 0
    assert c.predict_quiet_ticks(variable_outrefs=[held.oid]) == 0


# -- the sweep of a non-atomic trace (section 6.2) ---------------------------


def _windowed_site():
    from ..conftest import make_sim

    sim = make_sim(sites=("P",), gc=GcConfig(local_trace_duration=10.0))
    site = sim.site("P")
    root = site.heap.alloc(persistent_root=True)
    return sim, site, root


def test_object_born_in_the_trace_window_survives_until_the_next_trace():
    sim, site, root = _windowed_site()
    result = site.run_local_trace(force_full=True)  # commits 10 ticks later
    born = site.heap.alloc()  # no root reaches it
    assert born.oid not in result.clean_phase.unmarked
    sim.run_for(10.0)
    assert result.swept == [] and site.heap.contains(born.oid)
    following = site.run_local_trace(force_full=True)
    sim.run_for(10.0)
    assert following.swept == [born.oid]
    assert not site.heap.contains(born.oid)


def test_unmarked_object_linked_by_a_deferred_write_is_swept_at_commit():
    # The sweep list is fixed when the trace computes.  A write naming an
    # object no root reached waits in the window and lands after the sweep,
    # leaving a dangling reference (the mutator held no reference to it).
    sim, site, root = _windowed_site()
    orphan = site.heap.alloc()
    result = site.run_local_trace(force_full=True)
    assert result.clean_phase.unmarked == [orphan.oid]
    site.mutator_add_ref(root.oid, orphan.oid)  # deferred: tracing
    assert not root.holds_ref(orphan.oid)
    sim.run_for(10.0)
    assert result.swept == [orphan.oid]
    assert root.holds_ref(orphan.oid) and not site.heap.contains(orphan.oid)
    site.heap.check_flat_mirror()
