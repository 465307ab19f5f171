"""Shared-memory arena + heap integration: regions, spill, CSR, kernels.

The parallel engine re-homes each worker heap's flat-mirror bitmaps into a
pre-forked shared-memory arena so the coordinator can read per-site resident
counts without a broadcast.  These tests exercise the arena contract in one
process: attach/copy semantics, alive-count publication through every heap
mutation path, overflow spill (grow beyond the region's slots), CSR builds
inside and outside the region, detach hygiene, and the vectorized clean
phase agreeing byte-for-byte with both sequential kernels on adversarial
random graphs.
"""

import random
import warnings

import pytest

from repro.core.distance import (
    np,
    trace_clean_phase,
    trace_clean_phase_flat,
    trace_clean_phase_vector,
)
from repro.ids import ObjectId
from repro.store.heap import Heap
from repro.store.shm import (
    FLAG_CSR_LOCAL,
    FLAG_SLOTS_OVERFLOW,
    SharedArena,
    create_arena,
    shared_memory_available,
)

pytestmark = pytest.mark.skipif(
    not shared_memory_available(),
    reason="multiprocessing.shared_memory unavailable",
)


def _arena(**kwargs):
    return SharedArena(["P", "Q"], **kwargs)


def test_regions_are_pre_zeroed_and_sized():
    arena = _arena(slot_capacity=64)
    try:
        for site in ("P", "Q"):
            region = arena.region(site)
            assert region.slot_capacity == 64
            assert region.alive_count() == 0
            assert region.flags() == 0
            assert bytes(region.alive) == b"\x00" * 64
        assert arena.total_alive() == 0
        assert arena.nbytes > 0
    finally:
        arena.close()


def test_attach_publishes_counts_through_all_mutation_paths():
    arena = _arena(slot_capacity=64)
    try:
        heap = Heap("P")
        a = heap.alloc(persistent_root=True)
        b = heap.alloc()
        a.add_ref(b.oid)
        assert heap.attach_shared_region(arena.region("P"))
        assert heap.shared_region_attached
        assert arena.region("P").alive_count() == 2

        c = heap.alloc()  # alloc publishes
        assert arena.region("P").alive_count() == 3
        heap.sweep_ids([c.oid])  # sweep publishes
        assert arena.region("P").alive_count() == 2
        heap.delete(b.oid)  # delete publishes
        assert arena.region("P").alive_count() == 1
        heap.check_flat_mirror()
        assert arena.total_alive() == 1  # Q is empty
        heap.detach_shared_region()
    finally:
        arena.close()


def test_attach_rejects_heaps_larger_than_the_region():
    arena = _arena(slot_capacity=8)
    try:
        heap = Heap("P")
        for _ in range(9):
            heap.alloc()
        assert not heap.attach_shared_region(arena.region("P"))
        assert not heap.shared_region_attached
        assert arena.region("P").flags() & FLAG_SLOTS_OVERFLOW
        assert arena.total_alive() is None  # fast path invalidated
    finally:
        arena.close()


def test_overflow_spills_to_private_buffers_with_warning():
    arena = _arena(slot_capacity=8)
    try:
        heap = Heap("P")
        roots = [heap.alloc(persistent_root=True) for _ in range(4)]
        assert heap.attach_shared_region(arena.region("P"))
        with pytest.warns(RuntimeWarning, match="outgrew"):
            for _ in range(8):
                heap.alloc()
        assert not heap.shared_region_attached
        assert arena.region("P").flags() & FLAG_SLOTS_OVERFLOW
        assert arena.total_alive() is None
        heap.check_flat_mirror()  # private buffers stayed coherent
        assert len(heap) == 12
        # The spilled heap keeps working: kernels agree post-spill.
        result = trace_clean_phase_flat(heap, [(r.oid, 0) for r in roots])
        assert result.objects_scanned == 4
    finally:
        arena.close()


def test_detach_restores_private_buffers():
    arena = _arena(slot_capacity=16)
    try:
        heap = Heap("P")
        a = heap.alloc(persistent_root=True)
        assert heap.attach_shared_region(arena.region("P"))
        heap.detach_shared_region()
        assert not heap.shared_region_attached
        # Mutations after detach must not touch (or need) the region.
        b = heap.alloc()
        a.add_ref(b.oid)
        heap.check_flat_mirror()
        assert arena.region("P").alive_count() == 1  # stale, untouched
    finally:
        arena.close()


def test_close_is_idempotent_and_releases_the_segment():
    arena = _arena(slot_capacity=16)
    arena.close()
    arena.close()


def test_for_heaps_sizes_by_largest_heap():
    arena = SharedArena.for_heaps({"P": 10, "Q": 5000})
    try:
        assert arena.region("P").slot_capacity >= 5000
        assert arena.region("P").slot_capacity == arena.region("Q").slot_capacity
    finally:
        arena.close()


def test_create_arena_best_effort_never_raises():
    arena = create_arena({"P": 100})
    if arena is not None:
        arena.close()


@pytest.mark.skipif(np is None, reason="numpy unavailable")
def test_csr_builds_in_region_and_spills_to_local_when_small():
    arena = _arena(slot_capacity=16, csr_bytes=64)  # far too small for CSR
    try:
        heap = Heap("P")
        objs = [heap.alloc(persistent_root=(i == 0)) for i in range(6)]
        for i in range(5):
            objs[i].add_ref(objs[i + 1].oid)
        assert heap.attach_shared_region(arena.region("P"))
        csr = heap.csr_graph()
        assert csr is not None
        assert arena.region("P").flags() & FLAG_CSR_LOCAL
        assert csr.indptr[-1] == 5
        heap.detach_shared_region()
    finally:
        arena.close()


@pytest.mark.skipif(np is None, reason="numpy unavailable")
def test_csr_cache_invalidates_on_graph_changes():
    heap = Heap("P")
    a = heap.alloc(persistent_root=True)
    b = heap.alloc()
    first = heap.csr_graph()
    assert heap.csr_graph() is first  # cached while the graph is unchanged
    a.add_ref(b.oid)
    second = heap.csr_graph()
    assert second is not first
    assert second.indptr[-1] == 1


# -- vectorized kernel equivalence -------------------------------------------


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


@pytest.mark.skipif(np is None, reason="numpy unavailable")
def test_vector_kernel_matches_both_sequential_kernels():
    for seed in range(25):
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


@pytest.mark.skipif(np is None, reason="numpy unavailable")
def test_vector_kernel_works_attached_to_a_region():
    arena = _arena(slot_capacity=128)
    try:
        rng = random.Random(99)
        heap, roots, variable_outrefs = _random_heap(rng)
        expected = _as_tuple(trace_clean_phase_flat(heap, roots, variable_outrefs))
        assert heap.attach_shared_region(arena.region("P"))
        got = _as_tuple(trace_clean_phase_vector(heap, roots, variable_outrefs))
        assert got == expected
        heap.detach_shared_region()
    finally:
        arena.close()


def test_vector_kernel_without_numpy_falls_back(monkeypatch):
    import repro.core.distance as distance_mod

    heap = Heap("P")
    root = heap.alloc(persistent_root=True)
    leaf = heap.alloc()
    root.add_ref(leaf.oid)
    monkeypatch.setattr(distance_mod, "np", None)
    result = trace_clean_phase_vector(heap, [(root.oid, 0)])
    assert result.objects_scanned == 2


@pytest.mark.skipif(np is None, reason="numpy unavailable")
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
    # the next traces skip numpy entirely.
    got = _as_tuple(trace_clean_phase_vector(heap, roots))
    assert got == expected
    assert heap.vector_kernel_backoff > 0

    remaining = heap.vector_kernel_backoff
    again = _as_tuple(trace_clean_phase_vector(heap, roots))
    assert again == expected
    assert heap.vector_kernel_backoff == remaining - 1


# -- ring area ----------------------------------------------------------------


def test_ring_area_carves_distinct_pair_slices():
    arena = _arena(slot_capacity=8, ring_workers=2, ring_bytes=2048)
    try:
        assert arena.ring_workers == 2 and arena.ring_bytes == 2048
        # Each ordered pair gets its own slice; a write to (0, 1) is
        # invisible to (1, 0) and never corrupts the site regions.
        forward, backward = arena.ring(0, 1), arena.ring(1, 0)
        pos = forward.try_write(b"hello", 0, 0)
        assert pos is not None
        assert forward.read(0, pos) == [b"hello"]
        assert backward.read(0, 0) == []
        assert arena.total_alive() == 0
        with pytest.raises(Exception, match="no ring"):
            arena.ring(0, 2)
    finally:
        arena.close()


def test_rings_only_arena_has_no_site_regions():
    # An arena with an empty site table: ring slices exist, but there are
    # no published counts and total_alive must say so rather than report 0.
    arena = SharedArena([], ring_workers=2, ring_bytes=1024)
    try:
        assert arena.total_alive() is None
        assert arena.alive_counts() is None
        ring = arena.ring(1, 0)
        pos = ring.try_write(b"x" * 64, 0, 0)
        assert ring.read(0, pos) == [b"x" * 64]
    finally:
        arena.close()


def test_ring_area_absent_without_ring_bytes():
    arena = _arena(slot_capacity=8, ring_workers=4, ring_bytes=0)
    try:
        assert arena.ring_workers == 0
        with pytest.raises(Exception, match="no ring"):
            arena.ring(0, 0)
    finally:
        arena.close()
