"""Unit tests for the per-site heap and heap objects."""

import pytest

from repro.errors import HeapError, NotLocalError, UnknownObjectError
from repro.ids import ObjectId
from repro.store.heap import Heap


def test_alloc_assigns_monotonic_serials():
    heap = Heap("P")
    a = heap.alloc()
    b = heap.alloc()
    assert (a.oid.site, b.oid.site) == ("P", "P")
    assert b.oid.serial == a.oid.serial + 1


def test_get_rejects_remote_ids():
    heap = Heap("P")
    with pytest.raises(NotLocalError):
        heap.get(ObjectId("Q", 0))


def test_get_unknown_raises():
    heap = Heap("P")
    with pytest.raises(UnknownObjectError):
        heap.get(ObjectId("P", 99))


def test_refs_add_remove_with_duplicates():
    heap = Heap("P")
    a = heap.alloc()
    b = heap.alloc()
    a.add_ref(b.oid)
    a.add_ref(b.oid)
    assert a.refs.count(b.oid) == 2
    a.remove_ref(b.oid)
    assert a.refs.count(b.oid) == 1


def test_remove_missing_ref_raises():
    heap = Heap("P")
    a = heap.alloc()
    with pytest.raises(HeapError):
        a.remove_ref(ObjectId("P", 42))


def test_local_and_remote_ref_partition():
    obj = Heap("P").alloc(refs=[ObjectId("P", 1), ObjectId("Q", 2)])
    assert obj.local_refs() == [ObjectId("P", 1)]
    assert obj.remote_refs() == [ObjectId("Q", 2)]


def test_persistent_roots():
    heap = Heap("P")
    a = heap.alloc(persistent_root=True)
    b = heap.alloc()
    assert heap.persistent_roots == {a.oid}
    heap.make_persistent_root(b.oid)
    assert heap.persistent_roots == {a.oid, b.oid}
    heap.drop_persistent_root(a.oid)
    assert heap.persistent_roots == {b.oid}


def test_variable_pins_are_counted():
    heap = Heap("P")
    a = heap.alloc()
    heap.pin_variable(a.oid)
    heap.pin_variable(a.oid)
    heap.unpin_variable(a.oid)
    assert a.oid in heap.variable_roots
    heap.unpin_variable(a.oid)
    assert a.oid not in heap.variable_roots


def test_locally_reachable_follows_local_refs_only():
    heap = Heap("P")
    a, b, c = heap.alloc(), heap.alloc(), heap.alloc()
    a.add_ref(b.oid)
    b.add_ref(ObjectId("Q", 9))  # remote: not followed
    b.add_ref(c.oid)
    reachable = heap.locally_reachable_from([a.oid])
    assert reachable == {a.oid, b.oid, c.oid}


def test_locally_reachable_ignores_remote_roots():
    heap = Heap("P")
    a = heap.alloc()
    assert heap.locally_reachable_from([ObjectId("Q", 1), a.oid]) == {a.oid}


def test_sweep_removes_dead_and_counts():
    heap = Heap("P")
    a, b, c = heap.alloc(), heap.alloc(), heap.alloc()
    dead = heap.sweep(live={a.oid})
    assert set(dead) == {b.oid, c.oid}
    assert heap.contains(a.oid)
    assert not heap.contains(b.oid)
    assert heap.objects_collected == 2


def test_sweep_ids_skips_missing():
    heap = Heap("P")
    a = heap.alloc()
    deleted = heap.sweep_ids([a.oid, ObjectId("P", 77)])
    assert deleted == [a.oid]


def test_sweep_clears_roots_of_dead_objects():
    heap = Heap("P")
    a = heap.alloc(persistent_root=True)
    heap.pin_variable(a.oid)
    heap.sweep_ids([a.oid])
    assert heap.persistent_roots == set()
    assert heap.variable_roots == set()


def test_cycle_is_fully_reachable():
    heap = Heap("P")
    a, b = heap.alloc(), heap.alloc()
    a.add_ref(b.oid)
    b.add_ref(a.oid)
    assert heap.locally_reachable_from([a.oid]) == {a.oid, b.oid}


def test_adopt_clones_refs_under_new_id():
    heap_p, heap_q = Heap("P"), Heap("Q")
    src = heap_p.alloc(refs=[ObjectId("R", 3)])
    clone = heap_q.adopt(src)
    assert clone.oid.site == "Q"
    assert clone.refs == [ObjectId("R", 3)]


def test_a_stale_handle_never_writes_into_a_recycled_row():
    heap = Heap("P")
    keeper = heap.alloc()
    doomed = heap.alloc(refs=[keeper.oid])
    index = doomed.index
    heap.sweep_ids([doomed.oid])
    for _ in range(4):  # the free-list hands the index back to some alloc
        fresh = heap.alloc(refs=[keeper.oid, ObjectId("Q", 1)])
        if fresh.index == index:
            break
    assert fresh.index == index
    for touch in (
        lambda: doomed.add_ref(keeper.oid),
        lambda: doomed.remove_ref(keeper.oid),
        lambda: doomed.refs,
    ):
        with pytest.raises(UnknownObjectError):
            touch()
    assert fresh.refs == [keeper.oid, ObjectId("Q", 1)]
    heap.check_flat_mirror()


def test_payload_size_set_through_a_handle_survives_a_fresh_get():
    heap = Heap("P")
    obj = heap.alloc()
    assert obj.payload_size == 1
    obj.payload_size = 20
    assert heap.get(obj.oid).payload_size == 20
    assert heap.alloc(payload_size=5).payload_size == 5
    # A swept object's payload does not pass to its index's next object.
    index = obj.index
    heap.sweep_ids([obj.oid])
    reused = heap.alloc()
    assert reused.index == index
    assert reused.payload_size == 1
    heap.check_flat_mirror()
