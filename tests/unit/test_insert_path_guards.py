"""The guards the heap's insert path keeps, one named test each.

``Heap.alloc_id`` and ``Heap.add_ref`` handle the common case -- a fresh
object, a local slot on a row with no remote slot -- in a few lines, and
hand everything else to the general row code.  Each test below pins one
thing those lines must still do; each fails when its guard is taken out
(EXPERIMENTS E43 records the mutants and the tests that kill them):

- a swept or unknown holder raises ``UnknownObjectError`` and changes nothing;
- an id linked before it is allocated makes the next local trace start
  over, so no kept piece misses the row the revived index joins it to;
- a row's first remote slot after local slots records its slot order;
- the holder of every added edge is named dirty, so the kept piece holding
  it is walked again.
"""

import pytest

from repro.errors import UnknownObjectError
from repro.ids import ObjectId
from repro.store.heap import Heap
from repro.workloads import GraphBuilder

from ..conftest import KeptTrace, make_sim

REMOTE = ObjectId("Q", 7)


def test_a_swept_or_unknown_holder_raises_and_changes_nothing():
    heap = Heap("P")
    live, swept = heap.alloc().oid, heap.alloc().oid
    heap.add_ref(live, swept)  # a dangling slot keeps the swept index interned
    heap.sweep_ids([swept])
    heap.take_dirty()
    epoch, slots = heap.mutation_epoch, heap.flat_graph()[4]
    for holder in (swept, ObjectId("P", 99)):
        for target in (live, REMOTE):
            with pytest.raises(UnknownObjectError):
                heap.add_ref(holder, target)
    assert (heap.mutation_epoch, heap.flat_graph()[4]) == (epoch, slots)
    assert not heap.take_dirty()
    heap.check_flat_mirror()
    sim = make_sim(sites=("P", "Q"))
    builder = GraphBuilder(sim)
    target = builder.obj("P")
    with pytest.raises(UnknownObjectError):
        builder.link(ObjectId("P", 99), target)


def test_an_id_linked_before_it_is_allocated_drops_both_memos_on_alloc():
    heap = Heap("P")
    root = heap.alloc().oid
    future = ObjectId("P", 1)  # the next serial: interned dead, not resident
    heap.add_ref(root, future)
    kept = KeptTrace(heap)
    first = kept.trace(suspected=[root])
    assert first.outsets[root] == frozenset() and kept.clean_set() == set()
    assert kept.trace(suspected=[root]).pieces_walked == 0
    # Alive now, under an edge no dirty row records: only starting over
    # keeps either phase from keeping the piece that left it out.
    assert heap.alloc(refs=[REMOTE]).oid == future
    again = kept.trace(suspected=[root])
    assert again.outsets[root] == {REMOTE}
    assert again.suspected_objects_walked == 2
    assert kept.trace([(root, 0)]).kept_clean == 0


def test_a_rows_first_remote_slot_after_local_slots_records_its_slot_order():
    heap = Heap("P")
    holder, a, b = (heap.alloc().oid for _ in range(3))
    heap.add_ref(holder, a)
    heap.add_ref(holder, b)
    heap.add_ref(holder, REMOTE)
    heap.add_ref(holder, a)
    assert heap.get(holder).refs == [a, b, REMOTE, a]
    heap.remove_ref(holder, a)
    assert heap.get(holder).refs == [b, REMOTE, a]
    heap.check_flat_mirror()
    sim = make_sim(sites=("P", "Q"))
    builder = GraphBuilder(sim)
    src, local, remote = builder.obj("P"), builder.obj("P"), builder.obj("Q")
    builder.link(src, local)
    builder.link(src, remote)
    builder.link(src, local)
    assert sim.site("P").heap.get(src).refs == [local, remote, local]


@pytest.mark.parametrize("target", ["local", "remote", "at_alloc"])
def test_every_added_edge_names_its_holder_dirty(target):
    heap = Heap("P")
    root = heap.alloc(persistent_root=True).oid
    holder, other = heap.alloc().oid, heap.alloc().oid
    heap.add_ref(root, holder)
    heap.add_ref(root, other)
    kept = KeptTrace(heap)
    kept.trace()  # the kept piece now holds root, holder and other
    assert not heap.take_dirty()
    if target == "local":
        heap.add_ref(holder, other)
    elif target == "remote":
        heap.add_ref(holder, REMOTE)
    else:
        holder = heap.alloc(refs=[other, REMOTE]).oid
        heap.add_ref(root, holder)
    index = heap.flat_graph()[0][holder]
    assert index in heap._dirty
    result = kept.trace()
    assert result.pieces_walked == 1 and result.kept_clean == 0
