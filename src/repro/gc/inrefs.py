"""Inref table: incoming inter-site references.

Each entry records one local object that remote sites hold references to,
together with the *source list* (which sites, each with a distance estimate
per the distance heuristic of section 3).  The local trace uses non-garbage
inrefs as roots; back traces take *remote steps* from an inref to the
corresponding outrefs at its source sites.

Cleanliness: an inref is *clean* when its estimated distance is at or below
the suspicion threshold, or when the transfer barrier (section 6.1.1) has
cleaned it since the last local trace.  Otherwise it is *suspected*.

An inref's source list is one column (:mod:`.columns`): None when empty,
the site id itself for one source (whose distance is the entry's), and a
site -> distance dict for two or more.  Its flags byte holds the garbage
and barrier flags and how the last scan filed it.
"""

from __future__ import annotations

from bisect import bisect_left, insort
from operator import itemgetter
from types import MappingProxyType
from typing import Dict, FrozenSet, Iterable, List, Mapping, NamedTuple, Optional, Set, Tuple

from ..errors import GcInvariantError
from ..ids import ObjectId, SiteId
from .columns import BARRIER, NO_SET, IorefColumns, IorefEntry, new_handle

INFINITE_DISTANCE = 10**9
"""Sentinel for 'unreachable'; the paper's 'distance of garbage is infinity'."""

GARBAGE = 1
FILED_GARBAGE, FILED_CLEAN, FILED_SUSPECTED = 4, 8, 16
FILED = FILED_GARBAGE | FILED_CLEAN | FILED_SUSPECTED

#: A clean root ``(target, distance)``'s place in the trace order.
_by_distance = itemgetter(1, 0)


class InrefEntry(IorefEntry):
    """A handle on one inref: a local object plus its remote source list."""

    __slots__ = ()

    @property
    def sources(self) -> Mapping[SiteId, int]:
        """The source list (site -> distance estimate), read-only: the
        table's ``set_source`` / ``add_source`` / ``remove_source`` write it."""
        return MappingProxyType(self.table._source_dict(self.at()))

    @property
    def outset(self) -> FrozenSet[ObjectId]:
        """The suspected outrefs locally reachable from this inref as of the
        last local trace: what the transfer barrier cleans with it (section
        6.1.1), and the dual of the outrefs' insets."""
        return self.table._sets[self.at()]

    @property
    def garbage(self) -> bool:
        return bool(self.table._flags[self.at()] & GARBAGE)

    @garbage.setter
    def garbage(self, value: bool) -> None:
        self.table.set_garbage(self.target, value)

    def is_clean(self, threshold: int) -> bool:
        """Clean iff within the suspicion threshold or barrier-cleaned."""
        return self.table._clean_at(self.at(), threshold)

    def is_suspected(self, threshold: int) -> bool:
        return not self.is_clean(threshold)

    def add_source(self, site: SiteId, distance: int = 1) -> None:
        self.table.add_source(self.target, site, distance)

    def set_source_distance(self, site: SiteId, distance: int) -> None:
        """Apply a distance an update message carries (see
        :meth:`InrefTable.set_source_distances`)."""
        self.table.set_source_distances(site, ((self.target, distance),))

    def remove_source(self, site: SiteId) -> None:
        self.table.remove_source(self.target, site)


class InrefScan(NamedTuple):
    """What the inref table tells a local trace: both lists in increasing
    ``(distance, target)`` order (section 3), garbage-flagged entries out."""

    clean_roots: List[Tuple[ObjectId, int]]
    suspected_targets: List[ObjectId]


class InrefTable(IorefColumns):
    """All inrefs of one site, keyed by the referenced local object."""

    handle = InrefEntry
    kind = "inref"
    #: ``_sources``: None, a site id or a dict (see the module docstring);
    #: ``_filed``: the distance the last scan filed the entry at.
    COLUMNS = {**IorefColumns.COLUMNS, "_sources": None, "_filed": 0}

    def __init__(self, site_id: SiteId, suspicion_threshold: int, initial_back_threshold: int):
        super().__init__(site_id, initial_back_threshold)
        self._suspicion_threshold = suspicion_threshold
        self._structure_epoch = 0
        self._distance_epoch = 0
        # source site -> inref targets listing it; lets the full-update prune
        # in gc.update touch only inrefs sourced from the sender.
        self._by_source: Dict[SiteId, Set[ObjectId]] = {}
        # ``scan_for_trace`` keeps the trace order sorted across calls and
        # re-files only the targets named in ``_changed``: every entry whose
        # distance, garbage flag or clean state moved since, and every entry
        # created (a removed one leaves the order at once): the clean as the
        # ``(target, distance)`` roots a trace takes, the suspected as
        # ``(distance, target)`` keys.
        self._changed: Set[ObjectId] = set()
        self._clean_roots: List[Tuple[ObjectId, int]] = []
        self._suspected_keys: List[Tuple[int, ObjectId]] = []

    # -- mutation epochs --------------------------------------------------------
    #
    # ``structure_epoch`` advances on changes that can alter which entries
    # exist or how they classify (creation, deletion, garbage flags, barrier
    # cleans, threshold moves); ``distance_epoch`` advances on distance-only
    # changes, i.e. a new minimum distance on some entry.  The local trace's
    # planner tells the two apart (see ``LocalCollector.plan_trace``).

    @property
    def structure_epoch(self) -> int:
        return self._structure_epoch

    @property
    def distance_epoch(self) -> int:
        return self._distance_epoch

    def bump_structure(self) -> None:
        self._structure_epoch += 1

    @property
    def suspicion_threshold(self) -> int:
        return self._suspicion_threshold

    @suspicion_threshold.setter
    def suspicion_threshold(self, value: int) -> None:
        if value != self._suspicion_threshold:
            self._suspicion_threshold = value
            self.bump_structure()  # clean/suspected classification may flip
            self._changed.update(self._slot)

    # -- access -------------------------------------------------------------------

    def targets_from_source(self, source: SiteId) -> List[ObjectId]:
        """Inref targets whose source list includes ``source`` (sorted)."""
        return sorted(self._by_source.get(source, ()))

    def nearest(self, sets: Dict[ObjectId, FrozenSet[ObjectId]]) -> Dict[ObjectId, int]:
        """Per key of ``sets``, the least distance its set names (0 if none)."""
        slots, distances = self._slot, self._distance
        return {
            key: min([distances[slots[t]] for t in targets], default=0)
            for key, targets in sets.items()
        }

    def outset_of(self, target: ObjectId) -> FrozenSet[ObjectId]:
        return self._sets[self._slot[target]]

    def _source_dict(self, slot: int) -> Dict[SiteId, int]:
        sources = self._sources[slot]
        if sources.__class__ is dict:
            return dict(sources)
        return {} if sources is None else {sources: self._distance[slot]}

    def _source_distance(self, slot: int, site: SiteId) -> Optional[int]:
        sources = self._sources[slot]
        if sources.__class__ is dict:
            return sources.get(site)
        return self._distance[slot] if sources == site else None

    # -- source lists ---------------------------------------------------------------

    def _move_source(
        self, slot: int, site: SiteId, old: Optional[int], new: Optional[int]
    ) -> None:
        """Move ``site``'s distance on ``slot`` from ``old`` to ``new`` (None:
        absent).

        The one writer of a source list: ``old`` is what the caller just read
        there, so each distance is read once.  The minimum is kept
        incrementally: a lower distance is the new minimum outright, and only
        raising or removing the current minimum of two or more sources takes
        a pass over them.  A local trace reads only the minimum, so only a
        new minimum advances the distance epoch.
        """
        sources = self._sources[slot]
        current = self._distance[slot]
        if sources.__class__ is dict:
            if new is None:
                del sources[site]
            else:
                sources[site] = new
            if new is not None and new < current:
                distance = new
            elif old == current and (new is None or new > current):
                distance = min(sources.values())
            else:
                distance = current
            if len(sources) == 1:
                self._sources[slot] = next(iter(sources))
        elif new is None:
            self._sources[slot] = None
            distance = INFINITE_DISTANCE
        elif sources is None or sources == site:
            self._sources[slot] = site
            distance = new
        else:
            self._sources[slot] = {sources: current, site: new}
            distance = min(current, new)
        target = self._targets[slot]
        if old is None:
            self._by_source.setdefault(site, set()).add(target)
        elif new is None:
            self._unindex(site, target)
        if distance != current:
            self._distance[slot] = distance
            self._distance_epoch += 1
            self._changed.add(target)

    def set_source(self, target: ObjectId, site: SiteId, distance: int) -> None:
        """Set ``site``'s estimate on ``target`` outright, listing the site
        if it is not yet a source."""
        slot = self._slot[target]
        old = self._source_distance(slot, site)
        if old != distance:
            self._move_source(slot, site, old, distance)

    def add_source(self, target: ObjectId, site: SiteId, distance: int = 1) -> None:
        """Insert or refresh a source site.

        A *new* source is conservatively given distance 1 (section 3); an
        existing source keeps the smaller of old and offered estimates until
        the next update message re-propagates exact values.
        """
        slot = self._slot[target]
        current = self._source_distance(slot, site)
        if current is None or distance < current:
            self._move_source(slot, site, current, distance)

    def set_source_distances(
        self, site: SiteId, distances: Iterable[Tuple[ObjectId, int]]
    ) -> bool:
        """Fold ``site``'s (authoritative) estimates into the listed inrefs;
        True if any moved.  News about an inref the table does not hold, or
        does not list ``site`` for, is stale (the reference may have been
        dropped concurrently) and is ignored."""
        changed = False
        slot_of, lists, minimum = self._slot.get, self._sources, self._distance
        for target, distance in distances:
            slot = slot_of(target)
            if slot is None:
                continue
            # ``_source_distance`` inline: most listed distances are unchanged.
            sources = lists[slot]
            current = (
                sources.get(site) if sources.__class__ is dict
                else minimum[slot] if sources == site else None
            )
            if current is not None and current != distance:
                self._move_source(slot, site, current, distance)
                changed = True
        return changed

    def remove_source(self, target: ObjectId, source: SiteId) -> bool:
        """Apply an update-message removal, dropping the entry once its
        source list is empty; True if ``source`` was listed."""
        slot = self._slot.get(target)
        if slot is None:
            return False
        old = self._source_distance(slot, source)
        if old is not None:
            self._move_source(slot, source, old, None)
        if self._sources[slot] is None:
            self._drop(target, slot)
        return old is not None

    # -- entries --------------------------------------------------------------------

    def ensure(self, target: ObjectId, source: SiteId, distance: int = 1) -> InrefEntry:
        """Get-or-create the entry for ``target`` and record ``source``."""
        if target.site != self.site_id:
            raise GcInvariantError(
                f"inref target {target} does not belong to site {self.site_id}"
            )
        slot = self._slot.get(target)
        if slot is not None:
            self.add_source(target, source, distance)
            return new_handle(InrefEntry, (self, slot, self._targets[slot]))
        # A new entry is born with its source, and its table is told once.
        slot = self._take_slot(target, distance, 0)
        self._sources[slot] = source
        self._structure_epoch += 1
        if distance != INFINITE_DISTANCE:  # its minimum moved from infinity
            self._distance_epoch += 1
        self._changed.add(target)
        self._by_source.setdefault(source, set()).add(target)
        return new_handle(InrefEntry, (self, slot, target))

    def remove(self, target: ObjectId) -> None:
        slot = self._slot.get(target)
        if slot is not None:
            self._drop(target, slot)

    def _unindex(self, site: SiteId, target: ObjectId) -> None:
        members = self._by_source[site]
        members.discard(target)
        if not members:
            del self._by_source[site]

    def _drop(self, target: ObjectId, slot: int) -> None:
        """Take the entry in ``slot`` out of the table, the per-source index
        and the trace order."""
        for source in self._source_dict(slot):
            self._unindex(source, target)
        self._unfile(slot, target)
        self._sources[slot] = None
        self._free_slot(target)
        self._changed.discard(target)
        self.bump_structure()

    def set_garbage(self, target: ObjectId, value: bool = True) -> bool:
        """Set or clear the garbage flag a back trace (or a baseline) puts
        on ``target``; True if it moved."""
        slot = self._slot[target]
        flags = self._flags[slot]
        if bool(flags & GARBAGE) == value:
            return False
        self._flags[slot] = flags ^ GARBAGE
        self._structure_epoch += 1
        self._changed.add(target)
        return True

    def set_barrier_clean(self, target: ObjectId, value: bool) -> None:
        if self._flip_barrier(target, value) is not None:
            self._structure_epoch += 1
            self._changed.add(target)

    # -- views used by the collector ----------------------------------------------

    def _unfile(self, slot: int, target: ObjectId) -> None:
        """Take ``slot``'s entry out of the trace order it was last filed in."""
        flags = self._flags[slot]
        if flags & FILED_CLEAN:
            roots = self._clean_roots
            del roots[bisect_left(roots, (self._filed[slot], target), key=_by_distance)]
        elif flags & FILED_SUSPECTED:
            keys = self._suspected_keys
            del keys[bisect_left(keys, (self._filed[slot], target))]
        self._flags[slot] = flags & ~FILED

    def scan_for_trace(self) -> InrefScan:
        """Everything a local trace reads off this table.

        Re-files only the entries changed since the last call (see
        ``_changed``); the rest of the trace order is kept from it.
        """
        changed = self._changed
        if changed:
            self._changed = set()
            slot_of, distances, flags = self._slot, self._distance, self._flags
            threshold = self._suspicion_threshold
            for target in changed:
                slot = slot_of[target]
                self._unfile(slot, target)
                flag = flags[slot]
                if flag & GARBAGE:
                    flags[slot] = flag | FILED_GARBAGE
                    continue
                distance = self._filed[slot] = distances[slot]
                if distance <= threshold or flag & BARRIER:
                    insort(self._clean_roots, (target, distance), key=_by_distance)
                    flags[slot] = flag | FILED_CLEAN
                else:
                    insort(self._suspected_keys, (distance, target))
                    flags[slot] = flag | FILED_SUSPECTED
        return InrefScan(
            clean_roots=list(self._clean_roots),
            suspected_targets=list(map(itemgetter(1), self._suspected_keys)),
        )

    def diff_outsets(
        self, outsets: Dict[ObjectId, FrozenSet[ObjectId]]
    ) -> Dict[ObjectId, FrozenSet[ObjectId]]:
        """The outsets of a local trace that differ from the installed ones:
        each entry named in ``outsets`` whose outset moves, and each entry
        holding an outset the trace did not name (it gets an empty one).
        Changes nothing."""
        slot_of, held = self._slot.get, self._sets
        changes = {
            target: outset
            for target, outset in outsets.items()
            if (slot := slot_of(target)) is not None and held[slot] != outset
        }
        for target in self._nonempty:
            if target not in outsets:
                changes[target] = NO_SET
        return changes

    def install_outsets(self, changes: Dict[ObjectId, FrozenSet[ObjectId]]) -> None:
        """Give each entry named in ``changes`` its new outset (see
        :meth:`diff_outsets`)."""
        slot_of = self._slot.get
        for target, outset in changes.items():
            slot = slot_of(target)
            if slot is not None:
                self._put_set(target, slot, outset)

    def check_changed(self) -> None:
        """Assert the premise the incremental scan rests on: every entry
        filed otherwise than it now classifies is named in ``_changed``; the
        kept order is sorted and holds exactly the filed entries; the
        records beside the columns (per-source index, barrier flags,
        outsets) and each kept minimum are exact (test/debug support)."""
        self.check_slots()
        threshold, flags = self._suspicion_threshold, self._flags
        by_source: Dict[SiteId, Set[ObjectId]] = {}
        clean, suspected = set(), set()
        for target, slot in self._slot.items():
            sources = self._source_dict(slot)
            for source in sources:
                by_source.setdefault(source, set()).add(target)
            distance, flag = self._distance[slot], flags[slot]
            assert distance == min(sources.values(), default=INFINITE_DISTANCE)
            assert sources, f"inref {target} without a source"
            if flag & FILED_CLEAN:
                clean.add((target, self._filed[slot]))
            elif flag & FILED_SUSPECTED:
                suspected.add((self._filed[slot], target))
            if flag & GARBAGE:
                filed = flag & FILED == FILED_GARBAGE
            elif distance <= threshold or flag & BARRIER:
                filed = flag & FILED == FILED_CLEAN and self._filed[slot] == distance
            else:
                filed = flag & FILED == FILED_SUSPECTED and self._filed[slot] == distance
            assert filed or target in self._changed, f"inref {target} changed unrecorded"
        assert self._changed <= self._slot.keys(), "a removed inref is named changed"
        assert set(self._clean_roots) == clean and set(self._suspected_keys) == suspected
        assert self._clean_roots == sorted(self._clean_roots, key=_by_distance)
        assert self._suspected_keys == sorted(self._suspected_keys), "inref trace order"
        assert self._by_source == by_source, "per-source index drift"

    def is_clean(self, target: ObjectId) -> bool:
        slot = self._slot.get(target)
        return slot is not None and self._clean_at(slot, self._suspicion_threshold)

    def _clean_at(self, slot: int, threshold: int) -> bool:
        flags = self._flags[slot]
        return not flags & GARBAGE and bool(
            flags & BARRIER or self._distance[slot] <= threshold
        )

    def reset_barrier_cleans(self) -> None:
        """Called when a local trace completes: barrier cleans expire."""
        for target in sorted(self._barrier_flagged):
            self.set_barrier_clean(target, False)

    def garbage_targets(self) -> List[ObjectId]:
        flags = self._flags
        return [t for t, slot in self._slot.items() if flags[slot] & GARBAGE]
