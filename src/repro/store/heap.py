"""Per-site heap.

The heap owns object allocation, persistent roots, and *application roots*
(references the mutator holds in variables outside the object store --
section 6.3 of the paper).  The local collector treats both root kinds as
trace roots; application roots additionally keep the transfer-barrier story
safe when a mutator stashes a reference and reuses it later.

One record per object
---------------------
An object is its reference slots (section 2), and the heap stores it once,
as a row of the dense integer-indexed graph the local trace reads
(:func:`repro.core.distance.trace_clean_phase_flat`, :mod:`repro.core.backinfo`):

- local object ids are *interned* to dense indices (``_idx`` / ``_oids``);
- a row is ``_succ_local[i]`` (int indices of local successors, duplicates
  preserved) plus ``_remote_rows[i]`` (its remote ObjectIds, only for the
  rows holding any); ``_alive`` is a bytearray residency bitmap, and
  ``_payload`` holds the payload sizes other than 1;
- a dangling local reference (its target already swept -- ids are never
  reused, so it can never resurrect) keeps the target's index interned but
  dead; an index returns to the free-list only once it is dead *and* no
  slot points at it (``_slot_refs``), so indices never alias;
- ``_slot_total`` counts slots, local plus remote, over all rows.

**Slot order** (snapshots list it, churn picks from it, removal drops the
first equal occurrence): a row with no remote slot keeps it in
``_succ_local``, read back through ``_oids``; a row holding a remote slot
also keeps its ordered slots in ``_order``, whose local and remote
subsequences are its ``_succ_local`` and ``_remote_rows`` rows exactly.

**Handles.**  :class:`~repro.store.objects.HeapObject` is a transient
``(heap, oid)`` handle that resolves the oid on each use: a handle to a
swept object raises ``UnknownObjectError`` and never reaches a recycled row.

Trace memos
-----------
Every row change also names the row it touched in ``_dirty``: the holder
of an added or removed edge, a retired object, a released index.  Both
phases of a local trace remember the regions they walked last time, keyed
by the root each region grew from (a :class:`RegionMemo`: ``clean_memo``
for :func:`repro.core.distance.trace_clean_phase_flat`, ``suspected_memo``
for :func:`repro.core.backinfo.compute_outsets_bottom_up`; each kernel
states its own re-use rule).  :meth:`Heap.take_dirty` empties the one
dirty set and drops, from both memos, every region holding a row it
names.  Allocating an id that was already interned -- referenced before
it existed -- revives an index that remembered regions may point at
without any of their rows changing, so it drops both memos instead.
"""

from __future__ import annotations

from collections import Counter
from itertools import compress, repeat
from operator import itemgetter
from typing import Dict, Iterable, Iterator, List, Optional, Set, Tuple, Union

from ..errors import HeapError, NotLocalError, UnknownObjectError
from ..ids import ObjectId, SiteId
from .objects import HeapObject

#: ``bytes.translate`` table turning the alive bitmap into a fresh mark
#: bitmap: dead and free indices start marked, alive ones unmarked.
_DEAD_MARKED = bytes([1, 0]) + bytes(254)


class RegionMemo:
    """The regions one trace kernel walked in its last run, by root.

    ``regions`` maps a root's index to the kernel's record of the region
    that grew from it.  A record's first two items are the region's rows:
    a tuple or a dict keyed by them, or None and the window ``(lo, hi,
    bits)`` they span (``bits`` one byte per index from ``lo``, 1 for a row
    of the region).  ``owner`` maps each of those rows to its root's index.
    Only regions of the last run are kept, so a row belongs to at most one
    of them.  For the clean phase, whose regions cover most of the heap,
    ``owner`` is a list over all indices (-1, or past its end, for a row
    no remembered region holds; a row once held may keep its old root,
    which only costs a needless drop).  For the suspected phase it is
    *sparse*: a dict holding exactly the remembered rows, so that memo
    stays the size of the suspected regions, not of the heap.
    """

    __slots__ = ("regions", "owner")

    def __init__(self, sparse: bool = False) -> None:
        self.regions: Dict[int, tuple] = {}
        self.owner: Union[List[int], Dict[int, int]] = {} if sparse else []

    @staticmethod
    def probe(indices: List[int], expected: List[int]):
        """A getter over ``indices`` (of a mark bitmap) and what it returns
        when each holds its ``expected`` value; ``(None, None)`` for none."""
        if not indices:
            return None, None
        getter = itemgetter(*indices)
        return getter, tuple(expected) if len(expected) > 1 else expected[0]

    @staticmethod
    def rows_of(record: tuple) -> Iterable[int]:
        rows = record[0]
        if rows is None:
            lo, hi, bits = record[1]
            window = bits.to_bytes(hi - lo, "little")
            return [lo + j for j, bit in enumerate(window) if bit]
        return rows

    def own(self, size: int) -> List[int]:
        """A list ``owner``, grown to cover ``size`` indices."""
        owner = self.owner
        if len(owner) < size:
            owner.extend(repeat(-1, size - len(owner)))
        return owner

    def drop(self, root: int) -> None:
        """Forget the region of ``root``, and a sparse owner's rows of it."""
        record = self.regions.pop(root, None)
        owner = self.owner
        if record is not None and isinstance(owner, dict):
            for i in self.rows_of(record):
                if owner.get(i) == root:
                    del owner[i]

    def forget_rows(self, rows: Iterable[int]) -> None:
        """Drop every remembered region holding one of ``rows``."""
        regions, owner = self.regions, self.owner
        if not regions:
            return
        if isinstance(owner, dict):
            for i in rows:
                root = owner.get(i)
                if root is not None:
                    self.drop(root)
            return
        size = len(owner)
        for i in rows:
            if i < size:
                regions.pop(owner[i], None)

    def check(self, alive: bytearray, dirty: Set[int], name: str) -> None:
        """Assert the premise re-use rests on: a remembered row is alive or
        named in ``dirty``, and is owned by its region's root (and a sparse
        owner holds nothing else)."""
        owner = self.owner
        held = 0
        for root, record in self.regions.items():
            for i in self.rows_of(record):
                if isinstance(owner, dict):
                    assert owner.get(i) == root, f"{name} owner drift: {i}"
                    held += 1
                else:
                    assert i < len(owner) and owner[i] == root, f"{name} owner drift: {i}"
                assert i < len(alive) and (alive[i] or i in dirty), (
                    f"stale {name} region row: {i}"
                )
        if isinstance(owner, dict):
            assert len(owner) == held, f"{name} owner holds rows of no region"


class Heap:
    """All objects owned by one site."""

    def __init__(self, site_id: SiteId):
        self.site_id = site_id
        self._persistent_roots: Set[ObjectId] = set()
        self._variable_roots: Dict[ObjectId, int] = {}
        self._next_serial = 0
        self.objects_allocated = 0
        self.objects_collected = 0
        self._mutation_epoch = 0
        # -- the rows (see module docstring) --------------------------------
        self._idx: Dict[ObjectId, int] = {}
        self._oids: List[Optional[ObjectId]] = []
        self._alive = bytearray()
        self._resident_count = 0
        self._succ_local: List[List[int]] = []
        self._slot_refs: List[int] = []
        self._free: List[int] = []
        self._remote_rows: Dict[int, List[ObjectId]] = {}
        self._order: Dict[int, List[ObjectId]] = {}
        self._payload: Dict[int, int] = {}
        self._slot_total = 0
        # -- trace memos (see module docstring) -----------------------------
        self._dirty: Set[int] = set()
        self.clean_memo = RegionMemo()
        self.suspected_memo = RegionMemo(sparse=True)

    # -- mutation epoch ---------------------------------------------------------
    #
    # A monotonically increasing counter bumped on every change that can
    # alter the outcome of a local trace: allocation, sweeping, reference
    # add/remove, and any change to the root sets.  The incremental local
    # trace compares epochs to decide whether a cached trace result is
    # still valid.

    @property
    def mutation_epoch(self) -> int:
        return self._mutation_epoch

    def bump_epoch(self) -> None:
        self._mutation_epoch += 1

    # -- row maintenance ---------------------------------------------------------

    def _intern(self, oid: ObjectId) -> int:
        idx = self._idx.get(oid)
        if idx is not None:
            return idx
        if self._free:
            idx = self._free.pop()
            self._oids[idx] = oid
        else:
            idx = len(self._oids)
            self._oids.append(oid)
            self._alive.append(0)
            self._succ_local.append([])
            self._slot_refs.append(0)
        self._idx[oid] = idx
        return idx

    def _maybe_release(self, idx: int) -> None:
        """Return a dead, unreferenced index to the free-list."""
        if self._alive[idx] or self._slot_refs[idx]:
            return
        oid = self._oids[idx]
        if oid is None:
            return  # already free
        del self._idx[oid]
        self._oids[idx] = None
        self._free.append(idx)
        self._dirty.add(idx)

    def _edge_added(self, holder_idx: int, target: ObjectId) -> None:
        self._dirty.add(holder_idx)
        self._slot_total += 1
        order = self._order.get(holder_idx)
        if target.site == self.site_id:
            tidx = self._intern(target)
            self._succ_local[holder_idx].append(tidx)
            self._slot_refs[tidx] += 1
            if order is not None:
                order.append(target)
        elif order is None:
            # The row's first remote slot: its order so far is its local slots.
            self._remote_rows[holder_idx] = [target]
            self._order[holder_idx] = self._slots(holder_idx) + [target]
        else:
            self._remote_rows[holder_idx].append(target)
            order.append(target)

    def _edge_removed(self, holder_idx: int, target: ObjectId) -> None:
        """Drop the first occurrence of ``target`` from the row."""
        local = target.site == self.site_id
        row = self._succ_local[holder_idx] if local else self._remote_rows.get(holder_idx, [])
        slot = self._idx.get(target) if local else target
        if slot not in row:
            raise HeapError(f"{self._oids[holder_idx]} holds no reference to {target}")
        row.remove(slot)
        if local:
            self._slot_refs[slot] -= 1
            self._maybe_release(slot)
        elif not row:
            del self._remote_rows[holder_idx]
            del self._order[holder_idx]
        order = self._order.get(holder_idx)
        if order is not None:
            order.remove(target)
        self._dirty.add(holder_idx)
        self._slot_total -= 1

    def _retire(self, idx: int) -> None:
        """Drop a dying object's row (keep its index while held)."""
        self._dirty.add(idx)
        self._alive[idx] = 0
        self._resident_count -= 1
        self._order.pop(idx, None)
        self._payload.pop(idx, None)
        local = self._succ_local[idx]
        self._slot_total -= len(local) + len(self._remote_rows.pop(idx, ()))
        for tidx in local:
            self._slot_refs[tidx] -= 1
            if tidx != idx:
                self._maybe_release(tidx)
        local.clear()
        self._maybe_release(idx)

    def _row(self, oid: ObjectId) -> int:
        """The index of resident ``oid``; ``UnknownObjectError`` otherwise."""
        idx = self._idx.get(oid)
        if idx is None or not self._alive[idx]:
            raise UnknownObjectError(f"{oid} not present on site {self.site_id}")
        return idx

    def _slots(self, idx: int) -> List[ObjectId]:
        """A copy of the row's ordered reference slots."""
        order = self._order.get(idx)
        if order is not None:
            return list(order)
        oids = self._oids
        return [oids[t] for t in self._succ_local[idx]]

    def flat_graph(
        self,
    ) -> Tuple[
        Dict[ObjectId, int],
        List[List[int]],
        Dict[int, List[ObjectId]],
        List[Optional[ObjectId]],
        int,
    ]:
        """What a local trace reads of the rows, no copies.

        Returns ``(idx, succ_local, remote_rows, oids, slot_total)``;
        read-only by convention.  Residency comes as :meth:`fresh_marks`.
        """
        return (
            self._idx,
            self._succ_local,
            self._remote_rows,
            self._oids,
            self._slot_total,
        )

    def fresh_marks(self) -> bytearray:
        """A new mark bitmap over the indices: dead and free ones marked."""
        return self._alive.translate(_DEAD_MARKED)

    def take_dirty(self) -> Set[int]:
        """The rows changed since the last call, leaving the set empty; the
        remembered regions holding any of them are dropped."""
        dirty = self._dirty
        if dirty:
            self._dirty = set()
            self.clean_memo.forget_rows(dirty)
            self.suspected_memo.forget_rows(dirty)
        return dirty

    def check_flat_mirror(self) -> None:
        """Assert the rows' bookkeeping and the memo's premises (test/debug
        support; O(V+E))."""
        slot_refs = Counter(t for row in self._succ_local for t in row)
        slots = 0
        for idx, oid in enumerate(self._oids):
            assert slot_refs[idx] == self._slot_refs[idx], f"slot refcount drift: {idx}"
            local, remote = self._succ_local[idx], self._remote_rows.get(idx, ())
            slots += len(local) + len(remote)
            if oid is None:
                assert not self._alive[idx] and not self._slot_refs[idx]
            else:
                assert self._idx[oid] == idx
                assert self._alive[idx] or self._slot_refs[idx] > 0, (
                    f"dead unreferenced index kept: {oid}"
                )
            assert self._alive[idx] or not (local or remote), f"dead row kept: {idx}"
        free = [idx for idx, oid in enumerate(self._oids) if oid is None]
        assert sorted(self._free) == free, "free list drift"
        assert len(self._idx) == len(self._oids) - len(self._free), "intern drift"
        assert all(self._remote_rows.values()), "empty remote row kept"
        assert slots == self._slot_total, "slot total drift"
        assert self._order.keys() == self._remote_rows.keys(), "order record rows"
        for idx, order in self._order.items():
            local = [self._oids[t] for t in self._succ_local[idx]]
            split = [r for r in order if r.site == self.site_id], [
                r for r in order if r.site != self.site_id
            ]
            assert split == (local, self._remote_rows[idx]), f"order record drift: {idx}"
        assert all(self._alive[idx] for idx in self._payload), "dead payload kept"
        assert self._resident_count == self._alive.count(1), "resident count drift"
        # A memo may be re-used only where ``_dirty`` names every row that
        # changed since it was stored: a remembered row is still alive
        # unless the dirty set says otherwise.
        size = len(self._oids)
        assert all(idx < size for idx in self._dirty), "dirty row out of range"
        self.clean_memo.check(self._alive, self._dirty, "clean")
        self.suspected_memo.check(self._alive, self._dirty, "suspected")

    # -- allocation -----------------------------------------------------------

    def alloc(
        self,
        refs: Optional[Iterable[ObjectId]] = None,
        persistent_root: bool = False,
        payload_size: int = 1,
    ) -> HeapObject:
        """Create a new object on this site."""
        oid = ObjectId(site=self.site_id, serial=self._next_serial)
        self._next_serial += 1
        if oid in self._idx:
            # Referenced before it existed: the index comes alive under
            # edges no dirty row records (see the module docstring).
            self.clean_memo = RegionMemo()
            self.suspected_memo = RegionMemo(sparse=True)
        idx = self._intern(oid)
        self._alive[idx] = 1
        self._resident_count += 1
        for ref in refs or ():
            self._edge_added(idx, ref)
        if payload_size != 1:
            self._payload[idx] = payload_size
        self.objects_allocated += 1
        if persistent_root:
            self._persistent_roots.add(oid)
        self.bump_epoch()
        return HeapObject(self, oid)

    def adopt(self, obj: HeapObject) -> HeapObject:
        """Install an object migrated from another site under a fresh id.

        Used by the migration baseline.  Returns the new resident object; the
        caller is responsible for reference patching.
        """
        return self.alloc(refs=obj.refs, payload_size=obj.payload_size)

    # -- lookup ---------------------------------------------------------------

    def get(self, oid: ObjectId) -> HeapObject:
        if oid.site != self.site_id:
            raise NotLocalError(f"{oid} is not local to site {self.site_id}")
        self._row(oid)
        return HeapObject(self, oid)

    def maybe_get(self, oid: ObjectId) -> Optional[HeapObject]:
        return HeapObject(self, oid) if self.contains(oid) else None

    def contains(self, oid: ObjectId) -> bool:
        idx = self._idx.get(oid)
        return idx is not None and self._alive[idx] == 1

    def objects(self) -> Iterator[HeapObject]:
        return (HeapObject(self, oid) for oid in self.object_ids())

    def object_ids(self) -> List[ObjectId]:
        """Every resident object's id, in allocation (= serial) order."""
        return sorted(compress(self._oids, self._alive))

    def resident_slots(self) -> Iterator[Tuple[ObjectId, List[ObjectId]]]:
        """``(oid, ordered reference slots)`` per resident object, in
        allocation order -- one pass over the rows for whole-heap readers."""
        idx = self._idx
        return ((oid, self._slots(idx[oid])) for oid in self.object_ids())

    def __len__(self) -> int:
        return self._resident_count

    # -- roots ----------------------------------------------------------------

    @property
    def persistent_roots(self) -> Set[ObjectId]:
        return set(self._persistent_roots)

    def make_persistent_root(self, oid: ObjectId) -> None:
        self.get(oid)  # validate
        if oid not in self._persistent_roots:
            self._persistent_roots.add(oid)
            self.bump_epoch()

    def drop_persistent_root(self, oid: ObjectId) -> None:
        if oid in self._persistent_roots:
            self._persistent_roots.discard(oid)
            self.bump_epoch()

    @property
    def variable_roots(self) -> Set[ObjectId]:
        """Local objects currently pinned by mutator variables."""
        return set(self._variable_roots)

    def pin_variable(self, oid: ObjectId) -> None:
        """Record that a mutator variable holds a reference to ``oid``.

        Only local targets are pinned here; a variable holding a *remote*
        reference is represented by pinning the local outref instead (handled
        by the site layer).  Pins are counted so nested holds unpin correctly.
        """
        count = self._variable_roots.get(oid, 0)
        self._variable_roots[oid] = count + 1
        if count == 0:  # the root set (not just a pin count) changed
            self.bump_epoch()

    def unpin_variable(self, oid: ObjectId) -> None:
        count = self._variable_roots.get(oid, 0)
        if count <= 1:
            if self._variable_roots.pop(oid, None) is not None:
                self.bump_epoch()
        else:
            self._variable_roots[oid] = count - 1

    # -- mutation -----------------------------------------------------------------

    def add_ref(self, holder: ObjectId, target: ObjectId) -> None:
        """Append ``target`` to ``holder``'s slots."""
        self._edge_added(self._row(holder), target)
        self.bump_epoch()

    def remove_ref(self, holder: ObjectId, target: ObjectId) -> None:
        """Remove one occurrence of ``target``; ``HeapError`` if absent."""
        self._edge_removed(self._row(holder), target)
        self.bump_epoch()

    # -- reachability (local, used by collectors) --------------------------------

    def locally_reachable_from(self, roots: Iterable[ObjectId]) -> Set[ObjectId]:
        """All local objects reachable from ``roots`` via local references.

        Remote references are not followed (they terminate local paths), and
        root ids that are remote or absent are ignored -- convenient for
        callers passing raw inref keys.
        """
        alive, succ_local = self._alive, self._succ_local
        seen: Set[int] = set()
        stack = [self._idx[oid] for oid in roots if self.contains(oid)]
        while stack:
            idx = stack.pop()
            if idx not in seen:
                seen.add(idx)
                stack.extend(t for t in succ_local[idx] if alive[t] and t not in seen)
        return {self._oids[idx] for idx in seen}

    # -- sweeping -----------------------------------------------------------------

    def sweep(self, live: Set[ObjectId]) -> List[ObjectId]:
        """Delete every object not in ``live``; return the deleted ids."""
        return self.sweep_ids([oid for oid in self.object_ids() if oid not in live])

    def sweep_ids(self, dead: Iterable[ObjectId]) -> List[ObjectId]:
        """Delete exactly the listed objects (ids not present are skipped)."""
        deleted: List[ObjectId] = []
        for oid in dead:
            idx = self._idx.get(oid)
            if idx is None or not self._alive[idx]:
                continue
            self._retire(idx)
            self._persistent_roots.discard(oid)
            self._variable_roots.pop(oid, None)
            deleted.append(oid)
        self.objects_collected += len(deleted)
        if deleted:
            self.bump_epoch()
        return deleted

    def delete(self, oid: ObjectId) -> None:
        """Remove a single object (migration baseline support)."""
        if self.contains(oid):
            self._retire(self._idx[oid])
            self.bump_epoch()
        self._persistent_roots.discard(oid)
        self._variable_roots.pop(oid, None)
