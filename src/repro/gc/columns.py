"""What the inref and outref tables share: slots, columns and handles.

An ioref table stores each entry once, as a dense integer *slot* of its
columns, as the heap stores an object as a row: ``_slot`` maps a target to
its slot, and each per-entry field is one list (or the ``_flags``
bytearray) indexed by slot.  A removed entry's slot goes on a free list for
the next new entry; when none is free every column grows by half at once,
so creating an entry appends to nothing.  Beside the columns each table
keeps its barrier-cleaned targets, so the barrier passes after a local
trace touch only those; visited marks are kept only for slots a live back
trace marked.

An entry is read through a transient ``(table, slot, target)`` handle
(:class:`IorefEntry`), as a heap object is through ``HeapObject``: a read
through a handle whose entry is gone raises, even once another entry holds
its slot.  The table's methods are the one writer.
"""

from __future__ import annotations

from typing import Any, Dict, FrozenSet, Iterator, List, NamedTuple, Optional, Set

from ..errors import GcInvariantError
from ..ids import ObjectId, SiteId, TraceId

#: Flag bit shared by both tables: the transfer barrier cleaned the entry.
BARRIER = 2

NO_SET: FrozenSet[ObjectId] = frozenset()

#: Builds a handle from its field tuple without a Python-level ``__new__``.
new_handle = tuple.__new__


class IorefEntry(NamedTuple):
    """A transient handle on one ioref: its table, slot and target."""

    table: Any
    slot: int
    target: ObjectId

    def at(self) -> int:
        """The slot, after checking it still holds this handle's target."""
        table, slot, target = self
        if table._targets[slot] != target:
            raise GcInvariantError(f"stale handle: {target} is no longer in its table")
        return slot

    @property
    def distance(self) -> int:
        return self.table._distance[self.at()]

    @property
    def back_threshold(self) -> int:
        return self.table._back[self.at()]

    @property
    def visited(self) -> FrozenSet[TraceId]:
        return frozenset(self.table._visited.get(self.at(), ()))

    @property
    def barrier_clean(self) -> bool:
        return bool(self.table._flags[self.at()] & BARRIER)

    @barrier_clean.setter
    def barrier_clean(self, value: bool) -> None:
        self.table.set_barrier_clean(self.target, value)


class IorefColumns:
    """Slot book-keeping and the columns both ioref tables keep."""

    #: The handle class :meth:`get` and :meth:`entries` hand out, and the
    #: entry's name in error messages.
    handle: type = IorefEntry
    kind = "ioref"
    #: Each list column, by attribute name, with what a free slot holds
    #: there: ``_targets`` (None: free), ``_distance``, ``_back`` (the back
    #: threshold) and ``_sets``.  ``_flags`` is a bytearray beside them.
    COLUMNS: Dict[str, Any] = {"_targets": None, "_distance": 0, "_back": 0, "_sets": NO_SET}

    def __init__(self, site_id: SiteId, initial_back_threshold: int):
        self.site_id = site_id
        self.initial_back_threshold = initial_back_threshold
        self._slot: Dict[ObjectId, int] = {}
        self._order_dirty = False
        self._free: List[int] = []
        self._top = self._capacity = 0
        for name in self.COLUMNS:
            setattr(self, name, [])
        self._flags = bytearray()
        self._visited: Dict[int, Set[TraceId]] = {}
        self._barrier_flagged: Set[ObjectId] = set()

    def _grow(self) -> None:
        """Give every column half as many slots again (at least eight)."""
        more = max(8, self._capacity // 2)
        self._capacity += more
        for name, fill in self.COLUMNS.items():
            getattr(self, name).extend([fill] * more)
        self._flags += bytes(more)

    def _take_slot(self, target: ObjectId, distance: int, flags: int) -> int:
        """File new entry ``target`` in a freed slot, else the next fresh one."""
        free = self._free
        if free:
            slot = free.pop()
        else:
            slot = self._top
            self._top = slot + 1
            if slot == self._capacity:
                self._grow()
        self._slot[target] = slot
        self._order_dirty = True
        self._targets[slot] = target
        self._distance[slot] = distance
        self._flags[slot] = flags
        self._back[slot] = self.initial_back_threshold
        return slot

    def _free_slot(self, target: ObjectId) -> int:
        """Take ``target`` out of its slot and put the slot on the free list."""
        slot = self._slot.pop(target)
        self._targets[slot] = None
        self._sets[slot] = NO_SET
        self._visited.pop(slot, None)
        self._barrier_flagged.discard(target)
        self._free.append(slot)
        return slot

    def _flip_barrier(self, target: ObjectId, value: bool) -> Optional[int]:
        """Set or clear ``target``'s barrier flag; its slot if the flag moved."""
        slot = self._slot[target]
        flags = self._flags[slot]
        if bool(flags & BARRIER) == value:
            return None
        self._flags[slot] = flags ^ BARRIER
        if value:
            self._barrier_flagged.add(target)
        else:
            self._barrier_flagged.discard(target)
        return slot

    def _ensure_order(self) -> None:
        """Keep ``_slot`` sorted by target, re-sorting only after inserts.

        Deletions preserve order, so steady-state iteration costs nothing
        extra; the sorted order is the deterministic iteration invariant
        update building and the back-trace trigger check rely on.
        """
        if self._order_dirty:
            self._slot = dict(sorted(self._slot.items()))
            self._order_dirty = False

    # -- basic access -----------------------------------------------------------

    def get(self, target: ObjectId) -> Optional[IorefEntry]:
        slot = self._slot.get(target)
        return None if slot is None else new_handle(self.handle, (self, slot, self._targets[slot]))

    def require(self, target: ObjectId) -> IorefEntry:
        entry = self.get(target)
        if entry is None:
            raise GcInvariantError(f"site {self.site_id} has no {self.kind} for {target}")
        return entry

    def __contains__(self, target: ObjectId) -> bool:
        return target in self._slot

    def __len__(self) -> int:
        return len(self._slot)

    def present(self, targets: Set[ObjectId]) -> Set[ObjectId]:
        """Those of ``targets`` the table holds an entry for."""
        return self._slot.keys() & targets

    def entries(self) -> Iterator[IorefEntry]:
        """All entries in deterministic (target) order."""
        self._ensure_order()
        handle = self.handle
        return iter([new_handle(handle, (self, s, t)) for t, s in self._slot.items()])

    def targets(self) -> List[ObjectId]:
        """All targets, in the same (target) order as :meth:`entries`."""
        self._ensure_order()
        return list(self._slot)

    # -- back traces (section 4) ------------------------------------------------

    def visit(self, target: ObjectId, trace_id: TraceId, increment: int) -> None:
        """Back trace ``trace_id`` marks ``target`` visited, and the entry's
        back threshold rises by ``increment`` (section 4.3)."""
        slot = self._slot[target]
        self._visited.setdefault(slot, set()).add(trace_id)
        self._back[slot] += increment

    def has_visited(self, target: ObjectId, trace_id: TraceId) -> bool:
        return trace_id in self._visited.get(self._slot[target], NO_SET)

    def unvisit(self, target: ObjectId, trace_id: TraceId) -> None:
        """Drop ``trace_id``'s mark on ``target``, if both are still there."""
        slot = self._slot.get(target)
        marks = self._visited.get(slot)
        if marks is not None:
            marks.discard(trace_id)
            if not marks:
                del self._visited[slot]

    def check_slots(self) -> None:
        """Assert the slot book-keeping: each target in its slot, every
        other slot free, marks only on live slots (test/debug support)."""
        assert all(self._targets[s] == t for t, s in self._slot.items()), "slot drift"
        # Update building relies on this order: it would reorder wire messages.
        assert self._order_dirty or list(self._slot) == sorted(self._slot), "table order"
        free, live = set(self._free), set(self._slot.values())
        assert len(free) == len(self._free) and not free & live, "free list drift"
        assert len(free) + len(live) == self._top <= self._capacity, "slot count drift"
        assert all(self._targets[s] is None and self._sets[s] is NO_SET for s in free)
        assert self._visited.keys() <= live and all(self._visited.values()), "stale marks"
        flags = self._flags
        assert self._barrier_flagged == {
            t for t, s in self._slot.items() if flags[s] & BARRIER
        }, "barrier record drift"
