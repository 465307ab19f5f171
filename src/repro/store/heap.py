"""Per-site heap.

The heap owns object allocation, persistent roots, and *application roots*
(references the mutator holds in variables outside the object store --
section 6.3 of the paper).  The local collector treats both root kinds as
trace roots; application roots additionally keep the transfer-barrier story
safe when a mutator stashes a reference and reuses it later.

Flat-graph mirror
-----------------
Alongside the ``oid -> HeapObject`` map the heap maintains a dense
integer-indexed mirror of the local object graph for the local trace
(:func:`repro.core.distance.trace_clean_phase_flat` and
:mod:`repro.core.backinfo`):

- local object ids are *interned* to dense indices (``_idx`` / ``_oids``);
- per-index adjacency is ``_succ_local`` (int indices of local successors,
  duplicates preserved) plus ``_remote_rows`` (index -> its remote
  ObjectIds, only for the rows holding any);
- ``_alive`` is a bytearray liveness bitmap;
- a dangling local reference (its target already swept -- ids are never
  reused, so it can never resurrect) keeps the target's index interned but
  dead; an index returns to the free-list only once it is dead *and* no
  adjacency slot points at it (``_slot_refs``), so indices never alias;
- ``_slot_total`` counts adjacency slots, local plus remote, over all rows
  (a dead row is empty).

The mirror is maintained on every allocation, reference add/remove, and
sweep.  A local trace reads nothing else: both its phases share one mark
bitmap over the indices (:meth:`Heap.fresh_marks`), and its sweep takes the
rows the clean phase left unmarked, so no per-trace set of every resident
ObjectId is built.

Clean-phase memo
----------------
Every mirror change also names the row it touched in ``_dirty``: the holder
of an added or removed edge, a retired object, a released index.  The
kernel takes (and empties) that set on each call and stores
``clean_memo = (root keys, empty-region positions, rank)``: the trace's
``(distance, index)`` root list, the positions whose root marked nothing,
and a bytearray over the indices naming, for each row a root marked, that
root's trace position (255 for none; 254 for positions past 253).  The
next call re-uses the regions of the roots before the first changed row's
rank, touching only the changed rows and the roots in Python (the reuse
rule is in :mod:`repro.core.distance`).  Allocating an id that was
already interned -- referenced before it existed -- revives an index that
remembered regions may point at without any of their rows changing, so it
drops the memo instead.
"""

from __future__ import annotations

from collections import Counter
from typing import Dict, Iterable, Iterator, List, Optional, Set, Tuple

from ..errors import NotLocalError, UnknownObjectError
from ..ids import ObjectId, SiteId
from .objects import HeapObject

#: ``bytes.translate`` table turning the alive bitmap into a fresh mark
#: bitmap: dead and free indices start marked, alive ones unmarked.
_DEAD_MARKED = bytes([1, 0]) + bytes(254)


class Heap:
    """All objects owned by one site."""

    def __init__(self, site_id: SiteId):
        self.site_id = site_id
        self._objects: Dict[ObjectId, HeapObject] = {}
        self._persistent_roots: Set[ObjectId] = set()
        self._variable_roots: Dict[ObjectId, int] = {}
        self._next_serial = 0
        self.objects_allocated = 0
        self.objects_collected = 0
        self._mutation_epoch = 0
        # -- flat-graph mirror (see module docstring) -----------------------
        self._idx: Dict[ObjectId, int] = {}
        self._oids: List[Optional[ObjectId]] = []
        self._alive = bytearray()
        self._succ_local: List[List[int]] = []
        self._slot_refs: List[int] = []
        self._free: List[int] = []
        self._remote_rows: Dict[int, List[ObjectId]] = {}
        self._slot_total = 0
        # -- clean-phase memo (see module docstring) ------------------------
        self._dirty: Set[int] = set()
        self.clean_memo: Optional[
            Tuple[List[Tuple[int, int]], List[int], bytearray]
        ] = None

    # -- mutation epoch ---------------------------------------------------------
    #
    # A monotonically increasing counter bumped on every change that can
    # alter the outcome of a local trace: allocation, sweeping, reference
    # add/remove (including via directly-held HeapObjects), and any change
    # to the root sets.  The incremental local trace compares epochs to
    # decide whether a cached trace result is still valid.

    @property
    def mutation_epoch(self) -> int:
        return self._mutation_epoch

    def bump_epoch(self) -> None:
        self._mutation_epoch += 1

    # -- flat-graph mirror maintenance -----------------------------------------

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
        if target.site == self.site_id:
            tidx = self._intern(target)
            self._succ_local[holder_idx].append(tidx)
            self._slot_refs[tidx] += 1
        else:
            row = self._remote_rows.get(holder_idx)
            if row is None:
                self._remote_rows[holder_idx] = [target]
            else:
                row.append(target)

    def _edge_removed(self, holder_idx: int, target: ObjectId) -> None:
        self._dirty.add(holder_idx)
        self._slot_total -= 1
        if target.site == self.site_id:
            # Duplicate occurrences are interchangeable; drop the first.
            tidx = self._idx[target]
            self._succ_local[holder_idx].remove(tidx)
            self._slot_refs[tidx] -= 1
            self._maybe_release(tidx)
        else:
            row = self._remote_rows[holder_idx]
            row.remove(target)
            if not row:
                del self._remote_rows[holder_idx]

    def _note_ref_added(self, obj: HeapObject, target: ObjectId) -> None:
        """Called by :meth:`HeapObject.add_ref` (the object knows its heap)."""
        if obj.index >= 0:
            self._edge_added(obj.index, target)
        self.bump_epoch()

    def _note_ref_removed(self, obj: HeapObject, target: ObjectId) -> None:
        if obj.index >= 0:
            self._edge_removed(obj.index, target)
        self.bump_epoch()

    def _retire(self, obj: HeapObject) -> None:
        """Drop a dying object from the mirror (keep its index while held)."""
        idx = obj.index
        obj.index = -1
        self._dirty.add(idx)
        self._alive[idx] = 0
        local = self._succ_local[idx]
        self._slot_total -= len(local) + len(self._remote_rows.pop(idx, ()))
        for tidx in local:
            self._slot_refs[tidx] -= 1
            if tidx != idx:
                self._maybe_release(tidx)
        local.clear()
        self._maybe_release(idx)

    def flat_graph(
        self,
    ) -> Tuple[
        Dict[ObjectId, int],
        List[List[int]],
        Dict[int, List[ObjectId]],
        List[Optional[ObjectId]],
        int,
    ]:
        """What a local trace reads of the mirror, no copies.

        Returns ``(idx, succ_local, remote_rows, oids, slot_total)``;
        read-only by convention.  Liveness comes as :meth:`fresh_marks`.
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
        """The rows changed since the last call, leaving the set empty."""
        dirty, self._dirty = self._dirty, set()
        return dirty

    def check_flat_mirror(self) -> None:
        """Assert mirror == object map, and the memo's premises (test/debug
        support; O(V+E))."""
        for oid, obj in self._objects.items():
            idx = self._idx.get(oid)
            assert idx is not None and self._alive[idx], f"missing mirror: {oid}"
            assert obj.index == idx, f"index drift: {oid}"
            want_local = sorted(
                self._oids[t] for t in self._succ_local[idx]
            )
            have_local = sorted(r for r in obj.ref_view if r.site == self.site_id)
            assert want_local == have_local, f"local adjacency drift: {oid}"
            want_remote = sorted(self._remote_rows.get(idx, ()))
            have_remote = sorted(r for r in obj.ref_view if r.site != self.site_id)
            assert want_remote == have_remote, f"remote adjacency drift: {oid}"
        alive = {idx for idx, b in enumerate(self._alive) if b}
        assert len(alive) == len(self._objects), "alive bitmap drift"
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
        assert len(self._idx) == len(self._oids) - len(self._free), "intern drift"
        assert all(self._remote_rows.values()), "empty remote row kept"
        assert slots == self._slot_total, "slot total drift"
        # The memo may be re-used only where ``_dirty`` names every row that
        # changed since it was stored: a remembered index is still interned
        # (a ranked one still alive) unless the dirty set says otherwise.
        size = len(self._oids)
        assert all(idx < size for idx in self._dirty), "dirty row out of range"
        if self.clean_memo is not None:
            keys, empty, rank = self.clean_memo
            assert len(rank) <= size, "memo rank past the mirror"
            assert all(b == 255 or b < len(keys) for b in set(rank)), "memo rank"
            assert empty == sorted(set(empty)) and all(
                p < len(keys) for p in empty
            ), "memo empty positions"
            for idx, b in enumerate(rank):
                assert b == 255 or self._alive[idx] or idx in self._dirty, (
                    f"stale memo rank: {idx}"
                )
            for _, idx in keys:
                assert idx < size and (
                    self._oids[idx] is not None or idx in self._dirty
                ), f"stale memo root: {idx}"

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
        obj = HeapObject(oid, refs=refs, payload_size=payload_size)
        obj._owner = self
        if oid in self._idx:
            # Referenced before it existed: the index comes alive under
            # edges no dirty row records (see the module docstring).
            self.clean_memo = None
        idx = self._intern(oid)
        obj.index = idx
        self._alive[idx] = 1
        for ref in obj.ref_view:
            self._edge_added(idx, ref)
        self._objects[oid] = obj
        self.objects_allocated += 1
        if persistent_root:
            self._persistent_roots.add(oid)
        self.bump_epoch()
        return obj

    def adopt(self, obj: HeapObject) -> HeapObject:
        """Install an object migrated from another site under a fresh id.

        Used by the migration baseline.  Returns the new resident object; the
        caller is responsible for reference patching.
        """
        clone = self.alloc(refs=obj.refs, payload_size=obj.payload_size)
        return clone

    # -- lookup ---------------------------------------------------------------

    def get(self, oid: ObjectId) -> HeapObject:
        if oid.site != self.site_id:
            raise NotLocalError(f"{oid} is not local to site {self.site_id}")
        obj = self._objects.get(oid)
        if obj is None:
            raise UnknownObjectError(f"{oid} not present on site {self.site_id}")
        return obj

    def maybe_get(self, oid: ObjectId) -> Optional[HeapObject]:
        return self._objects.get(oid)

    def contains(self, oid: ObjectId) -> bool:
        return oid in self._objects

    def objects_map(self) -> Dict[ObjectId, HeapObject]:
        """The internal oid->object mapping, no copy -- read-only by convention.

        The reference clean phase's hot loop uses it for membership tests and
        successor fetches without a method call per edge; everything else
        should go through :meth:`get` / :meth:`contains`.
        """
        return self._objects

    def objects(self) -> Iterator[HeapObject]:
        return iter(self._objects.values())

    def object_ids(self) -> List[ObjectId]:
        return list(self._objects)

    def __len__(self) -> int:
        return len(self._objects)

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

    # -- mutation helpers -------------------------------------------------------

    def add_ref(self, holder: ObjectId, target: ObjectId) -> None:
        self.get(holder).add_ref(target)

    def remove_ref(self, holder: ObjectId, target: ObjectId) -> None:
        self.get(holder).remove_ref(target)

    # -- reachability (local, used by collectors) --------------------------------

    def objects_holding(self, ref: ObjectId) -> List[HeapObject]:
        """All local objects with at least one reference slot equal to ``ref``."""
        return [obj for obj in self._objects.values() if obj.holds_ref(ref)]

    def locally_reachable_from(self, roots: Iterable[ObjectId]) -> Set[ObjectId]:
        """All local objects reachable from ``roots`` via local references.

        Remote references are not followed (they terminate local paths), and
        root ids that are remote or absent are ignored -- convenient for
        callers passing raw inref keys.
        """
        seen: Set[ObjectId] = set()
        stack = [oid for oid in roots if oid.site == self.site_id and oid in self._objects]
        while stack:
            oid = stack.pop()
            if oid in seen:
                continue
            seen.add(oid)
            for ref in self._objects[oid].iter_refs():
                if ref.site == self.site_id and ref in self._objects and ref not in seen:
                    stack.append(ref)
        return seen

    # -- sweeping -----------------------------------------------------------------

    def sweep(self, live: Set[ObjectId]) -> List[ObjectId]:
        """Delete every object not in ``live``; return the deleted ids."""
        return self.sweep_ids([oid for oid in self._objects if oid not in live])

    def sweep_ids(self, dead: Iterable[ObjectId]) -> List[ObjectId]:
        """Delete exactly the listed objects (ids not present are skipped)."""
        deleted: List[ObjectId] = []
        for oid in dead:
            obj = self._objects.pop(oid, None)
            if obj is None:
                continue
            self._retire(obj)
            self._persistent_roots.discard(oid)
            self._variable_roots.pop(oid, None)
            deleted.append(oid)
        self.objects_collected += len(deleted)
        if deleted:
            self.bump_epoch()
        return deleted

    def delete(self, oid: ObjectId) -> None:
        """Remove a single object (migration baseline support)."""
        obj = self._objects.pop(oid, None)
        if obj is not None:
            self._retire(obj)
            self.bump_epoch()
        self._persistent_roots.discard(oid)
        self._variable_roots.pop(oid, None)
