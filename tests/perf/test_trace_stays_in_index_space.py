"""A host-independent gate: a local trace never reads ``HeapObject`` references.

Both phases of a local trace walk the heap's flat-graph mirror: the clean
phase marks a bitmap over the mirror's indices, the suspected phase
(``core.backinfo``) reads those marks and the same adjacency rows, and the
sweep takes the rows the clean phase left unmarked.  Nothing in
``LocalCollector.compute`` or ``commit`` should touch an object's reference
list, nor list the heap's objects -- either would bring back the per-trace
``ObjectId`` work the mirror exists to avoid.  The heap stores each object
only as its row, and ``HeapObject`` is the handle that reads a row back as
``ObjectId`` slots, so making a handle counts as a read too.  The readers are counted while
the smoke ``big_heap`` (clean-phase bound) and ``cycle_waves`` (suspected
phase, sweeps of collected cycles) run, so the gate is an exact count on
any host.  Wall clocks stay in the ledger (``python -m benchmarks.ledger``,
EXPERIMENTS E32).
"""

from __future__ import annotations

from collections import Counter

import pytest

from benchmarks.ledger.scenarios import BigHeap, CycleWaves, advance
from repro.gc.localtrace import LocalCollector
from repro.store.heap import Heap
from repro.store.objects import HeapObject

#: Making a handle, every way to read an object's references through it, and
#: every way to list the heap's objects.
REFERENCE_READERS = (
    "__init__",
    "refs",
    "iter_refs",
    "holds_ref",
    "remote_refs",
    "local_refs",
)
HEAP_LISTINGS = ("objects", "object_ids", "resident_slots")


def _counted(name, reader, inside, reads, is_property):
    if is_property:

        def get(obj):
            if inside:
                reads[name] += 1
            return reader.fget(obj)

        return property(get)

    def call(*args, **kwargs):
        if inside:
            reads[name] += 1
        return reader(*args, **kwargs)

    return call


@pytest.mark.parametrize("scenario_type", [BigHeap, CycleWaves])
def test_local_traces_read_only_the_flat_mirror(monkeypatch, scenario_type):
    scenario = scenario_type(seed=3, smoke=True)
    inside = []  # non-empty while compute or commit runs
    reads = Counter()
    for name in REFERENCE_READERS:
        reader = HeapObject.__dict__[name]
        is_property = isinstance(reader, property)
        monkeypatch.setattr(
            HeapObject, name, _counted(name, reader, inside, reads, is_property)
        )
    for name in HEAP_LISTINGS:
        reader = Heap.__dict__[name]
        monkeypatch.setattr(Heap, name, _counted(name, reader, inside, reads, False))
    calls = Counter()
    for name in ("compute", "commit"):
        method = getattr(LocalCollector, name)

        def phase(self, *args, _method=method, _name=name, **kwargs):
            calls[_name] += 1
            inside.append(_name)
            try:
                return _method(self, *args, **kwargs)
            finally:
                inside.pop()

        monkeypatch.setattr(LocalCollector, name, phase)
    advance(scenario)
    assert calls["compute"] > 50 and calls["commit"] > 50
    assert not reads, f"object-level reads inside local traces: {dict(reads)}"


def test_the_heap_has_no_resident_set_copy():
    assert not hasattr(Heap, "object_id_set")
