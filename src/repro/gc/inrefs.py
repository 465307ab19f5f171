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
        # ``_changed`` names every entry whose distance, garbage flag or clean
        # state moved since the local trace last took it, and every entry
        # created; ``_dropped`` every entry removed since, with the outset
        # it held.  Taking them re-files the changed entries (``_filed``, the
        # FILED flag bits): how the trace saw each entry, which
        # ``check_changed`` audits.
        self._changed: Set[ObjectId] = set()
        self._dropped: Dict[ObjectId, FrozenSet[ObjectId]] = {}

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
        self._flags[slot] = 0
        self._sources[slot] = None
        self._dropped[target] = self._sets[slot]
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

    def take_changed(self) -> Tuple[Set[ObjectId], Set[ObjectId]]:
        """The entries changed or removed since the last call, leaving none
        named, and of those the ones that were and are suspected (only
        their distance can have moved); each changed entry is re-filed as
        it now classifies."""
        changed, dropped = self._changed, self._dropped
        still_suspected: Set[ObjectId] = set()
        if changed:
            self._changed = set()
            slot_of, distances, flags = self._slot, self._distance, self._flags
            threshold = self._suspicion_threshold
            for target in changed:
                slot = slot_of[target]
                flag = flags[slot]
                filed = flag & FILED
                flag &= ~FILED
                if flag & GARBAGE:
                    flags[slot] = flag | FILED_GARBAGE
                    continue
                distance = self._filed[slot] = distances[slot]
                if distance <= threshold or flag & BARRIER:
                    flags[slot] = flag | FILED_CLEAN
                else:
                    flags[slot] = flag | FILED_SUSPECTED
                    if filed == FILED_SUSPECTED:
                        still_suspected.add(target)
        if dropped:
            self._dropped = {}
            changed = changed.union(dropped)
        return changed, still_suspected

    def outset_held(self, target: ObjectId) -> FrozenSet[ObjectId]:
        """The outset ``target``'s entry holds, or held when it was removed
        after the last :meth:`take_changed`; empty otherwise."""
        slot = self._slot.get(target)
        if slot is not None:
            return self._sets[slot]
        return self._dropped.get(target, NO_SET)

    def scan_for_trace(self, targets: Optional[Iterable[ObjectId]] = None) -> InrefScan:
        """How a local trace takes ``targets`` (default: every entry), each
        list in increasing ``(distance, target)`` order (section 3); targets
        without an entry are left out."""
        slot_of, distances, flags = self._slot.get, self._distance, self._flags
        threshold = self._suspicion_threshold
        clean: List[Tuple[ObjectId, int]] = []
        suspected: List[Tuple[int, ObjectId]] = []
        for target in self._slot if targets is None else targets:
            slot = slot_of(target)
            if slot is None:
                continue
            flag = flags[slot]
            if flag & GARBAGE:
                continue
            distance = distances[slot]
            if distance <= threshold or flag & BARRIER:
                clean.append((target, distance))
            else:
                suspected.append((distance, target))
        clean.sort(key=_by_distance)
        suspected.sort()
        return InrefScan(
            clean_roots=clean, suspected_targets=list(map(itemgetter(1), suspected))
        )

    def diff_outsets(
        self,
        outsets: Dict[ObjectId, FrozenSet[ObjectId]],
        others: Iterable[ObjectId] = (),
    ) -> Dict[ObjectId, FrozenSet[ObjectId]]:
        """The outsets of a local trace that differ from the installed ones:
        each entry named in ``outsets`` whose outset moves, and each entry
        in ``others`` holding an outset the trace did not name (it gets an
        empty one).  Changes nothing."""
        slot_of, held = self._slot.get, self._sets
        changes = {
            target: outset
            for target, outset in outsets.items()
            if (slot := slot_of(target)) is not None and held[slot] != outset
        }
        for target in others:
            if target not in outsets and (slot := slot_of(target)) is not None and held[slot]:
                changes[target] = NO_SET
        return changes

    def install_outsets(self, changes: Dict[ObjectId, FrozenSet[ObjectId]]) -> None:
        """Give each entry named in ``changes`` its new outset (see
        :meth:`diff_outsets`)."""
        slot_of = self._slot.get
        for target, outset in changes.items():
            slot = slot_of(target)
            if slot is not None:
                self._sets[slot] = outset

    def check_changed(self) -> None:
        """Assert the premise the local trace's kept outcome rests on: every
        entry filed otherwise than it now classifies is named in
        ``_changed``; the records beside the columns (per-source index,
        barrier flags) and each kept minimum are exact (test/debug
        support)."""
        self.check_slots()
        threshold, flags = self._suspicion_threshold, self._flags
        by_source: Dict[SiteId, Set[ObjectId]] = {}
        for target, slot in self._slot.items():
            sources = self._source_dict(slot)
            for source in sources:
                by_source.setdefault(source, set()).add(target)
            distance, flag = self._distance[slot], flags[slot]
            assert distance == min(sources.values(), default=INFINITE_DISTANCE)
            assert sources, f"inref {target} without a source"
            if flag & GARBAGE:
                filed = flag & FILED == FILED_GARBAGE
            elif distance <= threshold or flag & BARRIER:
                filed = flag & FILED == FILED_CLEAN and self._filed[slot] == distance
            else:
                filed = flag & FILED == FILED_SUSPECTED and self._filed[slot] == distance
            assert filed or target in self._changed, f"inref {target} changed unrecorded"
        assert self._changed <= self._slot.keys(), "a removed inref is named changed"
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
