"""Per-site heap.

The heap owns object allocation, persistent roots, and *application roots*
(references the mutator holds in variables outside the object store --
section 6.3 of the paper).  The local collector treats both root kinds as
trace roots; application roots additionally keep the transfer-barrier story
safe when a mutator stashes a reference and reuses it later.

Flat-graph mirror
-----------------
Alongside the ``oid -> HeapObject`` map the heap maintains a dense
integer-indexed mirror of the local object graph for the flat trace kernel
(:func:`repro.core.distance.trace_clean_phase_flat`):

- local object ids are *interned* to dense indices (``_idx`` / ``_oids``);
- per-index adjacency is split into ``_succ_local`` (int indices of local
  successors, duplicates preserved) and ``_succ_remote`` (remote ObjectIds);
- ``_alive`` is a bytearray liveness bitmap and ``_mark`` a same-sized
  reusable trace bitmap (zeroed by the kernel after each trace);
- a dangling local reference (its target already swept -- ids are never
  reused, so it can never resurrect) keeps the target's index interned but
  dead; an index returns to the free-list only once it is dead *and* no
  adjacency slot points at it (``_slot_refs``), so indices never alias.

The mirror is maintained on every allocation, reference add/remove, and
sweep; traces read it without building any per-trace set keyed by ObjectId.
"""

from __future__ import annotations

from typing import Dict, Iterable, Iterator, List, NamedTuple, Optional, Set, Tuple

from ..errors import NotLocalError, UnknownObjectError
from ..ids import ObjectId, SiteId
from .objects import HeapObject

try:  # numpy is an optional extra (pip install .[fast])
    import numpy as np
except ImportError:  # pragma: no cover - exercised by the no-numpy CI leg
    np = None


class FlatCsr(NamedTuple):
    """Dense CSR snapshot of the mirror for the vectorized kernel.

    ``indptr``/``indices`` give each slot's local successor indices
    (duplicates preserved, dead slots have empty rows);
    ``r_indptr``/``r_indices`` do the same for remote references against
    the interned ``r_oids`` table.  Valid while the heap's graph epoch is
    unchanged; :meth:`Heap.csr_graph` rebuilds lazily.
    """

    indptr: "np.ndarray"
    indices: "np.ndarray"
    r_indptr: "np.ndarray"
    r_indices: "np.ndarray"
    r_oids: List[ObjectId]


class Heap:
    """All objects owned by one site."""

    def __init__(self, site_id: SiteId):
        self.site_id = site_id
        self._objects: Dict[ObjectId, HeapObject] = {}
        # Maintained mirror of ``_objects``' key set: ``object_id_set`` hands
        # out C-level copies of it so per-trace snapshots never re-hash every
        # ObjectId on the heap.
        self._oid_set: Set[ObjectId] = set()
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
        self._mark = bytearray()
        self._succ_local: List[List[int]] = []
        self._succ_remote: List[List[ObjectId]] = []
        self._slot_refs: List[int] = []
        self._free: List[int] = []
        # Structural epoch for the CSR snapshot: bumped only on changes to
        # slots or adjacency (not roots/pins, which churn far more often).
        self._graph_epoch = 0
        self._csr: Optional[FlatCsr] = None
        self._csr_epoch = -1
        # Set by the vector clean-phase kernel when this heap's graph turned
        # out too deep-and-narrow for level-synchronous BFS: counts down the
        # traces to route straight to the flat scalar kernel before probing
        # the vector path again (see repro.core.distance).
        self.vector_kernel_backoff = 0

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
        self._graph_epoch += 1
        if self._free:
            idx = self._free.pop()
            self._oids[idx] = oid
        else:
            idx = len(self._oids)
            self._oids.append(oid)
            self._alive.append(0)
            self._mark.append(0)
            self._succ_local.append([])
            self._succ_remote.append([])
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

    def _edge_added(self, holder_idx: int, target: ObjectId) -> None:
        self._graph_epoch += 1
        if target.site == self.site_id:
            tidx = self._intern(target)
            self._succ_local[holder_idx].append(tidx)
            self._slot_refs[tidx] += 1
        else:
            self._succ_remote[holder_idx].append(target)

    def _edge_removed(self, holder_idx: int, target: ObjectId) -> None:
        self._graph_epoch += 1
        if target.site == self.site_id:
            # Duplicate occurrences are interchangeable; drop the first.
            tidx = self._idx[target]
            self._succ_local[holder_idx].remove(tidx)
            self._slot_refs[tidx] -= 1
            self._maybe_release(tidx)
        else:
            self._succ_remote[holder_idx].remove(target)

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
        self._graph_epoch += 1
        idx = obj.index
        obj.index = -1
        self._alive[idx] = 0
        local = self._succ_local[idx]
        self._succ_remote[idx].clear()
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
        bytearray,
        List[List[int]],
        List[List[ObjectId]],
        bytearray,
        List[Optional[ObjectId]],
    ]:
        """The mirror's internals for the flat trace kernel (no copies).

        Returns ``(idx, alive, succ_local, succ_remote, mark, oids)``.  The
        caller must leave ``mark`` all-zero when done (the kernel zeroes
        exactly the indices it marked).
        """
        return (
            self._idx,
            self._alive,
            self._succ_local,
            self._succ_remote,
            self._mark,
            self._oids,
        )

    @property
    def graph_epoch(self) -> int:
        return self._graph_epoch

    def csr_graph(self) -> Optional[FlatCsr]:
        """The mirror as int64 CSR arrays (numpy only; None without it).

        Rebuilt lazily when the graph epoch moved.
        """
        if np is None:
            return None
        if self._csr is not None and self._csr_epoch == self._graph_epoch:
            return self._csr
        n = len(self._oids)
        local_lens = [len(s) for s in self._succ_local]
        remote_lens = [len(s) for s in self._succ_remote]
        edges = sum(local_lens)
        remote_edges = sum(remote_lens)
        buf = np.empty(2 * (n + 1) + edges + remote_edges, dtype=np.int64)
        indptr = buf[: n + 1]
        indices = buf[n + 1 : n + 1 + edges]
        r_indptr = buf[n + 1 + edges : 2 * (n + 1) + edges]
        r_indices = buf[2 * (n + 1) + edges :]
        indptr[0] = 0
        if n:
            np.cumsum(local_lens, out=indptr[1:])
        if edges:
            indices[:] = np.fromiter(
                (t for row in self._succ_local for t in row),
                dtype=np.int64,
                count=edges,
            )
        r_indptr[0] = 0
        if n:
            np.cumsum(remote_lens, out=r_indptr[1:])
        # Remote ObjectIds interned in first-seen slot order: deterministic
        # given the mirror, and only ever consumed order-insensitively.
        r_oids: List[ObjectId] = []
        r_map: Dict[ObjectId, int] = {}
        if remote_edges:
            fill = r_indices
            pos = 0
            for row in self._succ_remote:
                for target in row:
                    rid = r_map.get(target)
                    if rid is None:
                        rid = len(r_oids)
                        r_map[target] = rid
                        r_oids.append(target)
                    fill[pos] = rid
                    pos += 1
        self._csr = FlatCsr(indptr, indices, r_indptr, r_indices, r_oids)
        self._csr_epoch = self._graph_epoch
        return self._csr

    def check_flat_mirror(self) -> None:
        """Assert mirror == object map (test/debug support; O(V+E))."""
        assert self._oid_set == set(self._objects), "oid set drift"
        for oid, obj in self._objects.items():
            idx = self._idx.get(oid)
            assert idx is not None and self._alive[idx], f"missing mirror: {oid}"
            assert obj.index == idx, f"index drift: {oid}"
            want_local = sorted(
                self._oids[t] for t in self._succ_local[idx]
            )
            have_local = sorted(r for r in obj.ref_view if r.site == self.site_id)
            assert want_local == have_local, f"local adjacency drift: {oid}"
            want_remote = sorted(self._succ_remote[idx])
            have_remote = sorted(r for r in obj.ref_view if r.site != self.site_id)
            assert want_remote == have_remote, f"remote adjacency drift: {oid}"
        alive_count = sum(1 for b in self._alive if b)
        assert alive_count == len(self._objects), "alive bitmap drift"
        assert not any(self._mark), "mark bitmap not zeroed after trace"
        for idx, oid in enumerate(self._oids):
            if oid is None:
                assert not self._alive[idx] and not self._slot_refs[idx]
            else:
                assert self._idx[oid] == idx
                assert self._alive[idx] or self._slot_refs[idx] > 0, (
                    f"dead unreferenced index kept: {oid}"
                )

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
        idx = self._intern(oid)
        obj.index = idx
        self._alive[idx] = 1
        for ref in obj.ref_view:
            self._edge_added(idx, ref)
        self._objects[oid] = obj
        self._oid_set.add(oid)
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

        The legacy clean phase's hot loop uses it for membership tests and
        successor fetches without a method call per edge; everything else
        should go through :meth:`get` / :meth:`contains`.
        """
        return self._objects

    def objects(self) -> Iterator[HeapObject]:
        return iter(self._objects.values())

    def object_ids(self) -> List[ObjectId]:
        return list(self._objects)

    def object_id_set(self) -> Set[ObjectId]:
        """A fresh set of every resident oid, copied without re-hashing."""
        return self._oid_set.copy()

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
            self._oid_set.discard(oid)
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
            self._oid_set.discard(oid)
            self._retire(obj)
            self.bump_epoch()
        self._persistent_roots.discard(oid)
        self._variable_roots.pop(oid, None)
