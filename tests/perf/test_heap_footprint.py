"""A host-independent memory gate: bytes the heaps take per resident object.

The heap stores each object once, as its row of the flat graph the local
trace reads; there is no second per-object record.  The smoke ``big_heap``
heaps (16 sites, 9,760 objects) are built under ``tracemalloc``, which
counts the allocations themselves rather than the process's pages, so the
figure is exact and the same on any host: about 336 B per object on
CPython 3.11 and 3.12, where an object record plus its reference list used
to add ~190 B more.  Peak RSS stays in the ledger
(``python -m benchmarks.ledger``, EXPERIMENTS E39).
"""

from __future__ import annotations

import tracemalloc

from benchmarks.ledger.scenarios import BigHeap

#: Traced bytes per resident object after building the smoke heaps.
BYTES_PER_OBJECT_BOUND = 350


def test_big_heap_bytes_per_resident_object():
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        scenario = BigHeap(seed=3, smoke=True)
        built = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    resident = scenario.sim.total_objects()
    assert resident > 9000
    per_object = built / resident
    assert per_object < BYTES_PER_OBJECT_BOUND, f"{per_object:.0f} B per resident object"
