"""Flat-graph heap mirror: interning, free-list, dangling slots, kernel twin.

The heap keeps a dense integer-index mirror of the local object graph:
interned ids, append-only adjacency arrays, a free-list guarded by per-slot
adjacency refcounts so an index is never reused while a dangling reference
still points at it.  ``check_flat_mirror`` is the assert-based validator
these tests lean on after every mutation batch.  The local collector keeps
its outcome per weakly connected piece of the heap between traces; the
cases below make one change per cause that must walk a piece again between
two traces, and hold every trace to the reference kernel
(``tests.conftest.KeptTrace``).
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

from ..conftest import KeptTrace


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


# -- the kept pieces -----------------------------------------------------------


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
    """The flat kernel's clean set: the resident objects its bitmap marks."""
    return {obj.oid for obj in heap.objects() if result.marks[obj.index]}


def _as_tuple(result, clean):
    return (
        clean,
        result.outref_distances,
        result.clean_variable_outrefs,
        result.objects_scanned,
        result.edges_examined,
    )


def test_flat_kernel_matches_the_reference_before_and_after_a_mutation():
    for seed in range(400):
        rng = random.Random(seed)
        heap, roots, variable_outrefs = _random_heap(rng)
        got = trace_clean_phase_flat(heap, roots, variable_outrefs)
        want = trace_clean_phase(heap, roots, variable_outrefs)
        assert _as_tuple(got, clean_set(heap, got)) == _as_tuple(want, want.clean_objects)
        kept = KeptTrace(heap)
        first = kept.trace(roots, variable_outrefs=variable_outrefs)
        # Nothing changed: every piece is kept, none walked.
        again = kept.trace(roots, variable_outrefs=variable_outrefs)
        assert again.clean_objects_walked == 0, f"seed {seed}"
        assert again.kept_clean == first.clean_objects_scanned, f"seed {seed}"
        live = sorted(heap.object_ids())
        holder = heap.get(rng.choice(live))
        if holder.refs and rng.random() < 0.5:
            holder.remove_ref(rng.choice(holder.refs))
        else:
            holder.add_ref(rng.choice(live))
        kept.trace(roots, variable_outrefs=variable_outrefs)


def _chain(heap, length):
    objs = [heap.alloc() for _ in range(length)]
    for holder, target in zip(objs, objs[1:]):
        holder.add_ref(target.oid)
    return objs


def test_memo_sees_an_edge_added_inside_a_region():
    heap = Heap("P")
    a, _ = _chain(heap, 2)
    c, d = _chain(heap, 2)
    kept = KeptTrace(heap)
    roots = [(a.oid, 0), (c.oid, 1)]
    kept.trace(roots)
    fresh = heap.alloc()
    d.add_ref(fresh.oid)
    result = kept.trace(roots)
    assert fresh.oid in kept.clean_set()
    assert (result.kept_clean, result.clean_objects_walked) == (2, 3)


def test_memo_sees_an_edge_removed_inside_a_region():
    """An unlink that splits a piece: both halves are walked again, and the
    half no root reaches is swept."""
    heap = Heap("P")
    a, b, c = _chain(heap, 3)
    kept = KeptTrace(heap)
    kept.trace([(a.oid, 0)])
    b.remove_ref(c.oid)
    result = kept.trace([(a.oid, 0)])
    assert c.oid not in kept.clean_set() and result.swept == [c.oid]
    assert result.kept_clean == 0 and result.pieces_walked == 1


def test_memo_sees_a_region_member_swept_or_deleted():
    for kill in ("sweep_ids", "delete"):
        heap = Heap("P")
        a, b, c = _chain(heap, 3)
        kept = KeptTrace(heap)
        kept.trace([(a.oid, 0)])
        if kill == "sweep_ids":
            heap.sweep_ids([b.oid])
        else:
            heap.delete(b.oid)
        result = kept.trace([(a.oid, 0)])
        assert kept.clean_set() == {a.oid}, kill
        assert result.swept == [c.oid], kill


def test_memo_follows_root_order_and_root_distance():
    """A root that drops below its neighbour's distance takes over the
    region they share: the piece is walked again and the outref follows."""
    heap = Heap("P")
    a = heap.alloc()
    c = heap.alloc()
    shared = heap.alloc()
    a.add_ref(shared.oid)
    c.add_ref(shared.oid)
    remote = ObjectId("Q", 0)
    c.add_ref(remote)
    kept = KeptTrace(heap)
    kept.trace([(a.oid, 0), (c.oid, 1)])
    swapped = kept.trace([(c.oid, 0), (a.oid, 1)])
    assert swapped.clean_objects_walked == 3
    assert kept.clean_outrefs() == {remote: 1}
    farther = kept.trace([(c.oid, 0), (a.oid, 3)])
    assert farther.clean_objects_walked == 3
    moved = kept.trace([(c.oid, 2), (a.oid, 3)])
    assert kept.clean_outrefs() == {remote: 3}
    # Unchanged roots: the piece is kept whole.
    again = kept.trace([(c.oid, 2), (a.oid, 3)])
    assert (again.kept_clean, again.clean_objects_walked) == (3, 0)
    assert moved.outref_changes == {remote: (True, 3, frozenset())}


def test_memo_reuses_a_region_wherever_its_root_now_sits():
    heap = Heap("P")
    a, b = _chain(heap, 2)
    c, d = _chain(heap, 2)
    e = heap.alloc()
    b.add_ref(ObjectId("Q", 0))
    d.add_ref(ObjectId("Q", 1))
    kept = KeptTrace(heap)
    kept.trace([(a.oid, 0), (c.oid, 1), (e.oid, 2)])
    # e's piece changes; a's and c's keep their roots and are kept, though
    # the trace order between the roots moved.
    e.add_ref(heap.alloc().oid)
    result = kept.trace([(a.oid, 0), (c.oid, 1), (e.oid, 2)])
    assert (result.kept_clean, result.clean_objects_walked) == (4, 2)
    assert kept.clean_outrefs() == {ObjectId("Q", 0): 1, ObjectId("Q", 1): 2}


def test_memo_rechecks_a_region_boundary():
    """Guard: a piece whose root is gone is walked again from the roots it
    has left."""
    heap = Heap("P")
    a, c, shared = heap.alloc(), heap.alloc(), heap.alloc()
    a.add_ref(shared.oid)
    c.add_ref(shared.oid)
    kept = KeptTrace(heap)
    kept.trace([(a.oid, 0), (c.oid, 1)])
    result = kept.trace([(c.oid, 1)])  # a is no root any more
    assert kept.clean_set() == {c.oid, shared.oid}
    assert result.swept == [a.oid] and result.kept_clean == 0


def test_memo_sees_an_earlier_walk_enter_a_region():
    """Guard: a changed row that now leads into a kept piece joins it, so
    that piece is walked again, and what is kept stays exact for later
    traces."""
    heap = Heap("P")
    a, b, x = heap.alloc(), heap.alloc(), heap.alloc()
    b.add_ref(x.oid)
    kept = KeptTrace(heap)
    kept.trace([(a.oid, 0), (b.oid, 1)])  # pieces {a} and {b, x}
    a.add_ref(x.oid)  # a's row now leads into b's piece
    result = kept.trace([(a.oid, 0), (b.oid, 1)])
    assert result.pieces_walked == 1 and result.clean_objects_walked == 3
    y = heap.alloc()
    x.add_ref(y.oid)
    kept.trace([(b.oid, 1)])
    assert kept.clean_set() == {b.oid, x.oid, y.oid}


def test_memo_is_dropped_when_an_id_referenced_early_is_allocated():
    heap = Heap("P")
    root = heap.alloc()
    early = ObjectId("P", 1)  # the next serial: not allocated yet
    root.add_ref(early)
    roots = [(root.oid, 0)]
    kept = KeptTrace(heap)
    kept.trace(roots)
    assert kept.clean_set() == {root.oid}
    revived = heap.alloc()
    assert revived.oid == early
    # No row of root's piece changed, yet the piece grew.
    result = kept.trace(roots)
    assert kept.clean_set() == {root.oid, early}
    assert result.kept_clean == 0


def test_memo_rechecks_an_empty_region_whose_index_was_reused():
    heap = Heap("P")
    first = heap.alloc()
    holder = heap.alloc()
    gone = heap.alloc()
    holder.add_ref(gone.oid)
    gone_idx = gone.index
    heap.sweep_ids([gone.oid])  # interned but dead
    kept = KeptTrace(heap)
    kept.trace([(first.oid, 0), (holder.oid, 0)])
    holder.remove_ref(gone.oid)  # releases the index...
    heap.check_flat_mirror()
    fresh = heap.alloc()  # ...and a new object takes it
    assert fresh.index == gone_idx
    result = kept.trace([(first.oid, 0), (holder.oid, 0), (fresh.oid, 0)])
    assert kept.clean_set() == {first.oid, holder.oid, fresh.oid}
    assert result.kept_clean == 1


def test_memo_reuses_every_unchanged_region():
    """Pieces are kept by their rows, not by trace position: a change in
    one of 300 pieces walks that one again and keeps the other 299."""
    heap = Heap("P")
    chains = [_chain(heap, 2) for _ in range(300)]
    roots = []
    for position, (head, tail) in enumerate(chains):
        tail.add_ref(ObjectId("Q", position))  # one outref per piece
        roots.append((head.oid, position // 50))
    kept = KeptTrace(heap)
    first = kept.trace(roots)
    assert first.kept_clean == 0 and first.pieces_held == 300
    again = kept.trace(roots)
    assert (again.kept_clean, again.pieces_walked) == (300 * 2, 0)
    chains[280][1].add_ref(heap.alloc().oid)
    result = kept.trace(roots)
    assert result.clean_objects_scanned == 300 * 2 + 1
    assert (result.kept_clean, result.pieces_walked) == (299 * 2, 1)
    assert kept.clean_outrefs()[ObjectId("Q", 280)] == 280 // 50 + 1


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
    assert result.garbage == [garbage.oid]
    b.remove_ref(c.oid)  # lands in the window
    swept = collector.commit(result)
    assert swept == [garbage.oid]
    again = collector.compute()
    collector.commit(again)
    assert again.garbage == [c.oid]
    assert again.clean_objects_scanned == 2
    collector.check_tables()
    heap.check_flat_mirror()


def test_an_outref_held_from_two_pieces_keeps_its_least_distance():
    """Guard: an outref held from two otherwise unconnected rows joins
    their pieces, so a change in the farther one re-minimises its distance
    over both."""
    heap = Heap("P")
    near, far = heap.alloc(), heap.alloc()
    shared = ObjectId("Q", 0)
    near.add_ref(shared)
    far.add_ref(shared)
    kept = KeptTrace(heap)
    roots = [(near.oid, 0), (far.oid, 3)]
    first = kept.trace(roots)
    assert first.pieces_held == 1 and kept.clean_outrefs() == {shared: 1}
    far.add_ref(heap.alloc().oid)  # only the farther row changes
    kept.trace(roots)
    assert kept.clean_outrefs() == {shared: 1}


def test_an_index_the_free_list_hands_out_again_is_walked():
    """Guard: an object allocated in an index a trace saw released is named
    dirty, so the next trace walks it (and sweeps it, unreached)."""
    heap = Heap("P")
    root = heap.alloc(persistent_root=True)
    doomed = heap.alloc()
    doomed_idx = doomed.index
    root.add_ref(doomed.oid)
    kept = KeptTrace(heap)
    kept.trace()
    root.remove_ref(doomed.oid)
    assert kept.trace().swept == [doomed.oid]  # its index is released
    kept.trace()
    fresh = heap.alloc()
    assert fresh.index == doomed_idx
    result = kept.trace()
    assert result.swept == [fresh.oid]


def test_a_clean_roots_new_distance_walks_its_piece():
    """Guard: a clean inref whose distance alone moved walks its piece
    again, and every clean outref the piece reaches from it takes one past
    its new distance, or past a nearer root's."""
    heap = Heap("P")
    a, b = _chain(heap, 2)
    out = ObjectId("Q", 0)
    b.add_ref(out)
    kept = KeptTrace(heap)
    kept.trace([(a.oid, 1)])
    moved = kept.trace([(a.oid, 3)])
    assert moved.pieces_walked == 1 and moved.clean_objects_walked == 2
    assert moved.outref_changes == {out: (True, 4, frozenset())}
    assert kept.clean_outrefs() == {out: 4}
    kept.trace([(a.oid, 3), (b.oid, 2)])  # two roots now
    walked = kept.trace([(a.oid, 0), (b.oid, 2)])
    assert walked.pieces_walked == 1 and kept.clean_outrefs() == {out: 1}
