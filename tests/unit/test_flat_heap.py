"""Flat-graph heap mirror: interning, free-list, dangling slots, kernel twin.

The heap keeps a dense integer-index mirror of the local object graph
(``flat_kernel``): interned ids, append-only adjacency arrays, a free-list
guarded by per-slot adjacency refcounts so an index is never reused while a
dangling reference still points at it.  ``check_flat_mirror`` is the
assert-based validator these tests lean on after every mutation batch.
"""

import random

from repro import GcConfig
from repro.core.distance import (
    trace_clean_phase,
    trace_clean_phase_flat,
    trace_clean_phase_vector,
)
from repro.gc.inrefs import InrefTable
from repro.gc.outrefs import OutrefTable
from repro.ids import ObjectId
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
    idx, alive, succ_local, _, _, _ = heap.flat_graph()
    assert succ_local[idx[b.oid]] == [idx[c.oid]]
    assert all(alive[i] for i in idx.values())


def test_remote_refs_are_not_interned():
    heap = Heap("P")
    a = heap.alloc()
    remote = ObjectId("Q", 0)
    a.add_ref(remote)
    idx, _, succ_local, succ_remote, _, _ = heap.flat_graph()
    assert remote not in idx
    assert succ_local[idx[a.oid]] == []
    assert succ_remote[idx[a.oid]] == [remote]
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
    """Random churn; both kernels must agree on clean sets, distances, and
    even the insertion order of the resulting distance dict."""
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
        assert legacy.clean_objects == flat.clean_objects
        assert legacy.outref_distances == flat.outref_distances
        assert list(legacy.outref_distances) == list(flat.outref_distances)
        assert legacy.clean_variable_outrefs == flat.clean_variable_outrefs
        assert legacy.objects_scanned == flat.objects_scanned
        assert legacy.edges_examined == flat.edges_examined
        heap.check_flat_mirror()


# -- frontier kernel -----------------------------------------------------------


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


def _as_tuple(result):
    return (
        result.clean_objects,
        result.outref_distances,
        result.clean_variable_outrefs,
        result.objects_scanned,
        result.edges_examined,
    )


def test_vector_kernel_matches_both_sequential_kernels():
    for seed in range(400):
        rng = random.Random(seed)
        heap, roots, variable_outrefs = _random_heap(rng)
        legacy = trace_clean_phase(heap, roots, variable_outrefs)
        flat = trace_clean_phase_flat(heap, roots, variable_outrefs)
        vector = trace_clean_phase_vector(heap, roots, variable_outrefs)
        assert _as_tuple(flat) == _as_tuple(legacy)
        assert _as_tuple(vector) == _as_tuple(legacy), f"seed {seed}"
        # The mark bitmap is restored: a second run gives the same answer.
        again = trace_clean_phase_vector(heap, roots, variable_outrefs)
        assert _as_tuple(again) == _as_tuple(legacy)


def test_vector_kernel_bails_out_on_deep_narrow_graphs():
    from repro.core.distance import _NARROW_PROBE_LEVELS

    heap = Heap("P")
    chain = [heap.alloc() for _ in range(_NARROW_PROBE_LEVELS * 4)]
    for holder, target in zip(chain, chain[1:]):
        holder.add_ref(target.oid)
    chain[-1].add_ref(ObjectId("Q", 0))
    roots = [(chain[0].oid, 0)]
    expected = _as_tuple(trace_clean_phase_flat(heap, roots))

    # A width-1 chain triggers the narrow-frontier bailout: identical
    # result (marks restored, outref distance intact), plus a backoff so
    # the next traces skip the sweep entirely.
    got = _as_tuple(trace_clean_phase_vector(heap, roots))
    assert got == expected
    assert heap.vector_kernel_backoff > 0

    remaining = heap.vector_kernel_backoff
    again = _as_tuple(trace_clean_phase_vector(heap, roots))
    assert again == expected
    assert heap.vector_kernel_backoff == remaining - 1
