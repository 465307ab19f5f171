"""Flat-graph heap mirror: interning, free-list, dangling slots, kernel twin.

The heap keeps a dense integer-index mirror of the local object graph:
interned ids, append-only adjacency arrays, a free-list guarded by per-slot
adjacency refcounts so an index is never reused while a dangling reference
still points at it.  ``check_flat_mirror`` is the assert-based validator
these tests lean on after every mutation batch.  The clean-phase kernel
re-uses regions of its previous run on the same heap; the memo cases below
make one change per invalidation cause between two traces and hold every
trace to the reference kernel.
"""

import random

from repro import GcConfig
from repro.core.distance import trace_clean_phase, trace_clean_phase_flat
from repro.gc.inrefs import InrefTable
from repro.gc.localtrace import LocalCollector
from repro.gc.outrefs import OutrefTable
from repro.ids import ObjectId
from repro.metrics import MetricsRecorder
from repro.store.heap import Heap


def test_mirror_tracks_alloc_link_unlink():
    heap = Heap("P")
    a = heap.alloc(persistent_root=True)
    b = heap.alloc()
    c = heap.alloc()
    a.add_ref(b.oid)
    b.add_ref(c.oid)
    b.add_ref(c.oid)  # duplicate edge: mirrored twice
    heap.check_flat_mirror()
    b.remove_ref(c.oid)  # one copy removed, one left
    heap.check_flat_mirror()
    idx, succ_local, _, _, _ = heap.flat_graph()
    assert succ_local[idx[b.oid]] == [idx[c.oid]]
    marks = heap.fresh_marks()
    assert not any(marks[i] for i in idx.values())


def test_remote_refs_are_not_interned():
    heap = Heap("P")
    a = heap.alloc()
    remote = ObjectId("Q", 0)
    a.add_ref(remote)
    idx, succ_local, remote_rows, _, _ = heap.flat_graph()
    assert remote not in idx
    assert succ_local[idx[a.oid]] == []
    assert remote_rows[idx[a.oid]] == [remote]
    heap.check_flat_mirror()


def test_swept_slot_is_reused_when_nothing_dangles():
    heap = Heap("P")
    doomed = heap.alloc()
    doomed_idx = doomed.index
    heap.sweep_ids([doomed.oid])
    heap.check_flat_mirror()
    fresh = heap.alloc()
    assert fresh.index == doomed_idx  # free-list handed the slot back
    assert fresh.oid != doomed.oid  # but ids are never reused
    heap.check_flat_mirror()


def test_dangling_adjacency_pins_the_slot():
    heap = Heap("P")
    holder = heap.alloc(persistent_root=True)
    target = heap.alloc()
    holder.add_ref(target.oid)
    target_idx = target.index
    # Sweep the target while holder still references it: the id dies but the
    # slot must not be reused -- holder's adjacency entry still points there.
    heap.sweep_ids([target.oid])
    heap.check_flat_mirror()
    fresh = heap.alloc()
    assert fresh.index != target_idx
    heap.check_flat_mirror()
    # Dropping the dangling reference finally releases the slot.
    holder.remove_ref(target.oid)
    heap.check_flat_mirror()
    reused = heap.alloc()
    assert reused.index == target_idx
    heap.check_flat_mirror()


def test_sweep_of_linked_pair_releases_both_slots():
    heap = Heap("P")
    a = heap.alloc()
    b = heap.alloc()
    slots = {a.index, b.index}
    a.add_ref(b.oid)
    b.add_ref(a.oid)  # local cycle
    heap.sweep_ids([a.oid, b.oid])
    heap.check_flat_mirror()
    assert len(heap) == 0
    # Both slots come back (retirement cleared the mutual adjacency).
    c, d = heap.alloc(), heap.alloc()
    assert {c.index, d.index} == slots
    heap.check_flat_mirror()


def _random_mutations(heap, rng, oids):
    for _ in range(rng.randrange(8, 24)):
        op = rng.random()
        if op < 0.4 or len(oids) < 2:
            obj = heap.alloc(persistent_root=rng.random() < 0.2)
            oids.append(obj.oid)
        elif op < 0.7:
            holder, target = rng.choice(oids), rng.choice(oids)
            if heap.contains(holder):
                heap.get(holder).add_ref(target)
        elif op < 0.85:
            holder = rng.choice(oids)
            if heap.contains(holder):
                heap.get(holder).add_ref(ObjectId("Q", rng.randrange(4)))
        else:
            victim = rng.choice(oids)
            if heap.contains(victim):
                heap.sweep_ids([victim])


def test_flat_kernel_is_byte_identical_to_legacy_kernel():
    """Random churn; both kernels must agree on clean sets, distances and
    cost counters."""
    rng = random.Random(42)
    config = GcConfig()
    for trial in range(25):
        heap = Heap("P")
        inrefs = InrefTable("P", config.suspicion_threshold, 0)
        oids = []
        _random_mutations(heap, rng, oids)
        for oid in rng.sample(oids, min(3, len(oids))):
            if heap.contains(oid):
                inrefs.ensure(oid, source="R", distance=rng.randrange(1, 8))
        roots = [(oid, 0) for oid in sorted(heap.persistent_roots)]
        roots.extend(
            (entry.target, entry.distance)
            for entry in inrefs.entries()
            if heap.contains(entry.target)
        )
        variable = [ObjectId("Q", 0)] if rng.random() < 0.3 else []
        legacy = trace_clean_phase(heap, roots, variable_outrefs=variable)
        flat = trace_clean_phase_flat(heap, roots, variable_outrefs=variable)
        assert legacy.clean_objects == clean_set(heap, flat)
        assert legacy.outref_distances == flat.outref_distances
        assert legacy.clean_variable_outrefs == flat.clean_variable_outrefs
        assert legacy.objects_scanned == flat.objects_scanned
        assert legacy.edges_examined == flat.edges_examined
        heap.check_flat_mirror()


# -- the clean-phase memo ---------------------------------------------------


def _random_heap(rng):
    """An adversarial local graph: dead interned slots, dangling refs,
    multi-edges, remote refs, plus root sets that overlap and miss."""
    heap = Heap("P")
    objs = [heap.alloc(persistent_root=rng.random() < 0.2) for _ in range(40)]
    for obj in objs:
        for _ in range(rng.randrange(4)):
            target = rng.choice(objs)
            obj.add_ref(target.oid)
        if rng.random() < 0.4:
            obj.add_ref(ObjectId(rng.choice(["Q", "R"]), rng.randrange(6)))
    dead = rng.sample(objs, 8)
    heap.sweep_ids([d.oid for d in dead])
    alive = [o for o in objs if o not in dead]
    roots = []
    for obj in rng.sample(alive, 12):
        roots.append((obj.oid, rng.randrange(4)))
    if roots:
        # Duplicate root at a different (larger) distance: min must win.
        roots.append((roots[0][0], roots[0][1] + 2))
    roots.append((ObjectId("Q", 1), 0))  # remote root: ignored
    roots.append((ObjectId("P", 10_000), 1))  # unknown local id: ignored
    variable_outrefs = [ObjectId("Q", rng.randrange(6)) for _ in range(2)]
    return heap, roots, variable_outrefs


def clean_set(heap, result):
    """The flat kernel's clean set: the heap minus what it left unmarked,
    checked against its mark bitmap."""
    unmarked = set(result.unmarked)
    assert len(unmarked) == len(result.unmarked)
    for obj in heap.objects():
        assert bool(result.marks[obj.index]) == (obj.oid not in unmarked)
    assert unmarked <= set(heap.object_ids())
    return set(heap.object_ids()) - unmarked


def _as_tuple(result, clean):
    return (
        clean,
        result.outref_distances,
        result.clean_variable_outrefs,
        result.objects_scanned,
        result.edges_examined,
    )


def _traced(heap, roots, variable_outrefs=()):
    """The production kernel, held to the reference on the five contract
    fields; the mirror and the memo audited afterwards."""
    got = trace_clean_phase_flat(heap, roots, variable_outrefs)
    want = trace_clean_phase(heap, roots, variable_outrefs)
    assert _as_tuple(got, clean_set(heap, got)) == _as_tuple(
        want, want.clean_objects
    )
    heap.check_flat_mirror()
    return got


def test_flat_kernel_matches_the_reference_before_and_after_a_mutation():
    for seed in range(400):
        rng = random.Random(seed)
        heap, roots, variable_outrefs = _random_heap(rng)
        first = _traced(heap, roots, variable_outrefs)
        # Nothing changed: the whole previous run is re-used.
        again = _traced(heap, roots, variable_outrefs)
        assert again.objects_reused == first.objects_scanned, f"seed {seed}"
        live = sorted(heap.object_ids())
        holder = heap.get(rng.choice(live))
        if holder.refs and rng.random() < 0.5:
            holder.remove_ref(rng.choice(holder.refs))
        else:
            holder.add_ref(rng.choice(live))
        _traced(heap, roots, variable_outrefs)


def _chain(heap, length):
    objs = [heap.alloc() for _ in range(length)]
    for holder, target in zip(objs, objs[1:]):
        holder.add_ref(target.oid)
    return objs


def test_memo_sees_an_edge_added_inside_a_region():
    heap = Heap("P")
    a, _ = _chain(heap, 2)
    c, d = _chain(heap, 2)
    roots = [(a.oid, 0), (c.oid, 1)]
    _traced(heap, roots)
    fresh = heap.alloc()
    d.add_ref(fresh.oid)
    result = _traced(heap, roots)
    assert fresh.oid in clean_set(heap, result)
    assert result.objects_reused == 2  # a's region; c's was walked again


def test_memo_sees_an_edge_removed_inside_a_region():
    heap = Heap("P")
    a, b, c = _chain(heap, 3)
    roots = [(a.oid, 0)]
    _traced(heap, roots)
    b.remove_ref(c.oid)
    result = _traced(heap, roots)
    assert c.oid not in clean_set(heap, result)
    assert result.objects_reused == 0


def test_memo_sees_a_region_member_swept_or_deleted():
    for kill in ("sweep_ids", "delete"):
        heap = Heap("P")
        a, b, c = _chain(heap, 3)
        roots = [(a.oid, 0)]
        _traced(heap, roots)
        if kill == "sweep_ids":
            heap.sweep_ids([b.oid])
        else:
            heap.delete(b.oid)
        result = _traced(heap, roots)
        assert clean_set(heap, result) == {a.oid}, kill


def test_memo_follows_root_order_and_root_distance():
    heap = Heap("P")
    a = heap.alloc()
    c = heap.alloc()
    shared = heap.alloc()
    a.add_ref(shared.oid)
    c.add_ref(shared.oid)
    remote = ObjectId("Q", 0)
    c.add_ref(remote)
    _traced(heap, [(a.oid, 0), (c.oid, 1)])
    # Another order: c's remembered boundary (shared) is not marked when c
    # comes first, and a's region holds a row c reached: both are walked.
    swapped = _traced(heap, [(c.oid, 0), (a.oid, 1)])
    assert swapped.objects_reused == 0
    assert swapped.outref_distances == {remote: 1}
    # Same order, other distances: a region does not depend on its root's
    # distance, so both are re-used, and the outref follows c's distance.
    farther = _traced(heap, [(c.oid, 0), (a.oid, 3)])
    assert farther.objects_reused == 3
    moved = _traced(heap, [(c.oid, 2), (a.oid, 3)])
    assert moved.objects_reused == 3
    assert moved.outref_distances == {remote: 3}


def test_memo_reuses_a_region_wherever_its_root_now_sits():
    heap = Heap("P")
    a, b = _chain(heap, 2)
    c, d = _chain(heap, 2)
    e = heap.alloc()
    b.add_ref(ObjectId("Q", 0))
    d.add_ref(ObjectId("Q", 1))
    _traced(heap, [(a.oid, 0), (c.oid, 1), (e.oid, 2)])
    # c overtakes a, and e's region changes: a's and c's are re-used.
    e.add_ref(heap.alloc().oid)
    result = _traced(heap, [(c.oid, 0), (e.oid, 1), (a.oid, 3)])
    assert result.objects_reused == 4
    assert result.outref_distances == {ObjectId("Q", 0): 4, ObjectId("Q", 1): 1}


def test_memo_rechecks_a_region_boundary():
    """Guard: a remembered region is re-used only while every row its
    edges led to outside it is marked already."""
    heap = Heap("P")
    a, c, shared = heap.alloc(), heap.alloc(), heap.alloc()
    a.add_ref(shared.oid)
    c.add_ref(shared.oid)
    _traced(heap, [(a.oid, 0), (c.oid, 1)])  # c's region: c, boundary shared
    result = _traced(heap, [(c.oid, 1)])  # a is no root any more
    assert clean_set(heap, result) == {c.oid, shared.oid}
    assert result.objects_reused == 0


def test_memo_sees_an_earlier_walk_enter_a_region():
    """Guard: a walk that marks a row of another root's remembered region
    names that region intruded, so it is walked rather than re-used, and
    the memo stays exact for later traces."""
    heap = Heap("P")
    a, b, x = heap.alloc(), heap.alloc(), heap.alloc()
    b.add_ref(x.oid)
    _traced(heap, [(a.oid, 0), (b.oid, 1)])  # b's region: b, x
    a.add_ref(x.oid)  # a's walk now takes x
    _traced(heap, [(a.oid, 0), (b.oid, 1)])
    y = heap.alloc()
    x.add_ref(y.oid)
    result = _traced(heap, [(b.oid, 1)])
    assert clean_set(heap, result) == {b.oid, x.oid, y.oid}


def test_memo_is_dropped_when_an_id_referenced_early_is_allocated():
    heap = Heap("P")
    root = heap.alloc()
    early = ObjectId("P", 1)  # the next serial: not allocated yet
    root.add_ref(early)
    roots = [(root.oid, 0)]
    assert clean_set(heap, _traced(heap, roots)) == {root.oid}
    revived = heap.alloc()
    assert revived.oid == early
    # No row of root's region changed, yet the region grew.
    result = _traced(heap, roots)
    assert clean_set(heap, result) == {root.oid, early}
    assert result.objects_reused == 0


def test_memo_rechecks_an_empty_region_whose_index_was_reused():
    heap = Heap("P")
    first = heap.alloc()
    holder = heap.alloc()  # unreached: its row is dirty, no region is
    gone = heap.alloc()
    holder.add_ref(gone.oid)
    gone_idx = gone.index
    heap.sweep_ids([gone.oid])  # interned but dead: an empty region
    _traced(heap, [(first.oid, 0), (gone.oid, 0)])
    holder.remove_ref(gone.oid)  # releases the index...
    heap.check_flat_mirror()  # (a remembered root released is dirty)
    fresh = heap.alloc()  # ...and a new object takes it
    assert fresh.index == gone_idx
    result = _traced(heap, [(first.oid, 0), (fresh.oid, 0)])
    assert clean_set(heap, result) == {first.oid, fresh.oid}
    assert result.objects_reused == 1


def test_memo_reuses_every_unchanged_region():
    """Regions are keyed by root, not by trace position: a change in one of
    300 regions walks that one again and re-uses the other 299."""
    heap = Heap("P")
    chains = [_chain(heap, 2) for _ in range(300)]
    roots = []
    for position, (head, tail) in enumerate(chains):
        tail.add_ref(ObjectId("Q", position))  # one outref per region
        roots.append((head.oid, position // 50))
    heap.alloc().add_ref(ObjectId("R", 0))  # unreached: its outref stays out
    first = _traced(heap, roots)
    assert first.objects_reused == 0
    again = _traced(heap, roots)
    assert again.objects_reused == 300 * 2
    chains[280][1].add_ref(heap.alloc().oid)
    result = _traced(heap, roots)
    assert result.objects_scanned == 300 * 2 + 1
    assert result.objects_reused == 299 * 2
    assert result.outref_distances[ObjectId("Q", 280)] == 280 // 50 + 1


def test_memo_sees_a_mutation_between_compute_and_commit():
    config = GcConfig()
    heap = Heap("P")
    collector = LocalCollector(
        heap,
        InrefTable("P", config.suspicion_threshold, config.initial_back_threshold),
        OutrefTable("P", config.initial_back_threshold),
        config,
        metrics=MetricsRecorder(),
    )
    a, b, c = _chain(heap, 3)
    heap.make_persistent_root(a.oid)
    garbage = heap.alloc()
    result = collector.compute()  # non-atomic: commit comes later
    assert result.clean_phase.unmarked == [garbage.oid]
    b.remove_ref(c.oid)  # lands in the window
    swept = collector.commit(result)
    assert swept == [garbage.oid]
    again = collector.compute()
    want = trace_clean_phase(heap, [(a.oid, 0)])
    clean = clean_set(heap, again.clean_phase)
    assert _as_tuple(again.clean_phase, clean) == _as_tuple(want, want.clean_objects)
    assert clean == {a.oid, b.oid}
    heap.check_flat_mirror()
