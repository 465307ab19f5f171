"""Inref table: incoming inter-site references.

Each entry records one local object that remote sites hold references to,
together with the *source list* (which sites, each with a distance estimate
per the distance heuristic of section 3).  The local trace uses non-garbage
inrefs as roots; back traces take *remote steps* from an inref to the
corresponding outrefs at its source sites.

Cleanliness: an inref is *clean* when its estimated distance is at or below
the suspicion threshold, or when the transfer barrier (section 6.1.1) has
cleaned it since the last local trace.  Otherwise it is *suspected*.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, FrozenSet, Iterator, List, NamedTuple, Optional, Set, Tuple

from ..errors import GcInvariantError
from ..ids import ObjectId, SiteId, TraceId

INFINITE_DISTANCE = 10**9
"""Sentinel for 'unreachable'; the paper's 'distance of garbage is infinity'."""


class _SourceMap(dict):
    """Per-source distance map that notifies its entry on every change.

    Tests and scenario builders routinely poke ``entry.sources[site] = d``
    (or ``.update(...)``, ``.clear()``, ...) directly; every mutator is
    routed through the two notifying primitives below, so those writes still
    refresh ``entry.distance``, maintain the table's per-source index and
    advance the epochs the incremental trace depends on.
    """

    __slots__ = ("entry",)

    def __init__(self, entry: "InrefEntry", initial=()):
        super().__init__(initial)
        self.entry = entry

    def __setitem__(self, site: SiteId, distance: int) -> None:
        added = site not in self
        if not added and self.get(site) == distance:
            return
        super().__setitem__(site, distance)
        self.entry._sources_changed(added=site if added else None)

    def __delitem__(self, site: SiteId) -> None:
        super().__delitem__(site)
        self.entry._sources_changed(removed=site)

    def pop(self, site, *default):
        present = site in self
        value = super().pop(site, *default)
        if present:
            self.entry._sources_changed(removed=site)
        return value

    def popitem(self):
        if not self:
            raise KeyError("popitem(): source list is empty")
        site = next(reversed(self))
        return site, self.pop(site)

    def clear(self) -> None:
        for site in list(self):
            del self[site]

    def update(self, *args, **kwargs) -> None:
        for site, distance in dict(*args, **kwargs).items():
            self[site] = distance

    def setdefault(self, site: SiteId, distance: int) -> int:
        if site not in self:
            self[site] = distance
        return self[site]

    def __ior__(self, other):
        self.update(other)
        return self


@dataclass(slots=True)
class InrefEntry:
    """One incoming reference: a local object plus its remote source list.

    ``garbage`` and ``barrier_clean`` are properties so that *any* writer --
    the back-trace engine, the transfer barrier, a baseline collector --
    automatically bumps the owning table's structure epoch; source-list
    changes flow through :class:`_SourceMap` and bump the distance epoch.
    The incremental local trace depends on these notifications.  A
    table-owned entry reaches its table through ``_table``; a free-standing
    one (``_table`` None) notifies nobody.
    """

    target: ObjectId
    sources: Dict[SiteId, int] = field(default_factory=dict)
    visited: Set[TraceId] = field(default_factory=set)
    back_threshold: int = 0
    # Outset of this inref as of the last local trace (suspected outrefs
    # locally reachable from it).  The transfer barrier cleans exactly these
    # outrefs when the inref is cleaned (section 6.1.1); it is also the dual
    # of the insets stored on outrefs.
    outset: FrozenSet[ObjectId] = frozenset()
    # Estimated distance: the minimum over the per-source estimates, kept
    # current by ``_sources_changed`` (read-only for everyone else).
    distance: int = field(default=INFINITE_DISTANCE, init=False)
    _garbage: bool = field(default=False, repr=False)
    _barrier_clean: bool = field(default=False, repr=False)
    _table: Optional["InrefTable"] = field(default=None, repr=False, compare=False)

    def __post_init__(self) -> None:
        if not isinstance(self.sources, _SourceMap):
            self.sources = _SourceMap(self, self.sources)
        if self.sources:
            self.distance = min(self.sources.values())

    def _structure_changed(self) -> None:
        if self._table is not None:
            self._table._structure_epoch += 1

    def _sources_changed(
        self, added: Optional[SiteId] = None, removed: Optional[SiteId] = None
    ) -> None:
        sources = self.sources
        self.distance = min(sources.values()) if sources else INFINITE_DISTANCE
        table = self._table
        if table is None:
            return
        if added is not None:
            table._index_source_added(self.target, added)
        elif removed is not None:
            table._index_source_removed(self.target, removed)
        table._distance_epoch += 1

    @property
    def garbage(self) -> bool:
        return self._garbage

    @garbage.setter
    def garbage(self, value: bool) -> None:
        if value != self._garbage:
            self._garbage = value
            self._structure_changed()

    @property
    def barrier_clean(self) -> bool:
        return self._barrier_clean

    @barrier_clean.setter
    def barrier_clean(self, value: bool) -> None:
        if value != self._barrier_clean:
            self._barrier_clean = value
            table = self._table
            if table is not None:
                if value:
                    table._barrier_flagged.add(self.target)
                else:
                    table._barrier_flagged.discard(self.target)
            self._structure_changed()

    def is_clean(self, threshold: int) -> bool:
        """Clean iff within the suspicion threshold or barrier-cleaned."""
        if self._garbage:
            return False
        return self._barrier_clean or self.distance <= threshold

    def is_suspected(self, threshold: int) -> bool:
        return not self.is_clean(threshold)

    def add_source(self, site: SiteId, distance: int = 1) -> None:
        """Insert or refresh a source site.

        A *new* source is conservatively given distance 1 (section 3); an
        existing source keeps the smaller of old and offered estimates until
        the next update message re-propagates exact values.
        """
        current = self.sources.get(site)
        if current is None:
            self.sources[site] = distance
        else:
            self.sources[site] = min(current, distance)

    def set_source_distance(self, site: SiteId, distance: int) -> None:
        """Apply a distance carried by an update message (authoritative)."""
        if site not in self.sources:
            # The source may have been dropped concurrently; ignore stale news.
            return
        self.sources[site] = distance

    def remove_source(self, site: SiteId) -> None:
        self.sources.pop(site, None)

    @property
    def empty(self) -> bool:
        """True when no source remains; the entry should then be deleted."""
        return not self.sources


class InrefScan(NamedTuple):
    """What one pass over the inref table tells a local trace.

    ``clean_roots`` and ``suspected_targets`` are in increasing
    ``(distance, target)`` order (the trace order of section 3) and leave out
    garbage-flagged entries.  ``clean_after_reset`` is each entry's
    classification once the trace's commit has expired the barrier cleans:
    within the threshold and not garbage-flagged.
    """

    clean_roots: List[Tuple[ObjectId, int]]
    suspected_targets: List[ObjectId]
    distances: Dict[ObjectId, int]
    clean_after_reset: Dict[ObjectId, bool]


class InrefTable:
    """All inrefs of one site, keyed by the referenced local object."""

    def __init__(self, site_id: SiteId, suspicion_threshold: int, initial_back_threshold: int):
        self.site_id = site_id
        self._suspicion_threshold = suspicion_threshold
        self.initial_back_threshold = initial_back_threshold
        self._entries: Dict[ObjectId, InrefEntry] = {}
        self._order_dirty = False
        self._structure_epoch = 0
        self._distance_epoch = 0
        # source site -> inref targets listing it; lets the full-update prune
        # in gc.update touch only inrefs sourced from the sender.
        self._by_source: Dict[SiteId, Set[ObjectId]] = {}
        # Targets whose entry is barrier-cleaned right now, so that expiring
        # the flags after a local trace costs the flagged entries only.
        self._barrier_flagged: Set[ObjectId] = set()

    # -- mutation epochs --------------------------------------------------------
    #
    # ``structure_epoch`` advances on changes that can alter which entries
    # exist or how they classify (creation, deletion, garbage flags, barrier
    # cleans, threshold moves); ``distance_epoch`` advances on distance-only
    # changes.  The split lets the incremental local trace run its cheap
    # distance-only reconciliation when nothing structural moved.

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

    # -- basic access ---------------------------------------------------------

    def get(self, target: ObjectId) -> Optional[InrefEntry]:
        return self._entries.get(target)

    def require(self, target: ObjectId) -> InrefEntry:
        entry = self._entries.get(target)
        if entry is None:
            raise GcInvariantError(f"site {self.site_id} has no inref for {target}")
        return entry

    def __contains__(self, target: ObjectId) -> bool:
        return target in self._entries

    def __len__(self) -> int:
        return len(self._entries)

    def _ensure_order(self) -> None:
        """Keep ``_entries`` sorted by target, re-sorting only after inserts.

        Deletions preserve order, so steady-state iteration costs nothing
        extra; the sorted order is the deterministic iteration invariant the
        collector's update building relies on.
        """
        if self._order_dirty:
            self._entries = dict(sorted(self._entries.items()))
            self._order_dirty = False

    def entries(self) -> Iterator[InrefEntry]:
        """All entries in deterministic (target) order (see _ensure_order)."""
        self._ensure_order()
        return iter(self._entries.values())

    def targets(self) -> List[ObjectId]:
        self._ensure_order()
        return list(self._entries)

    def targets_from_source(self, source: SiteId) -> List[ObjectId]:
        """Inref targets whose source list includes ``source`` (sorted)."""
        return sorted(self._by_source.get(source, ()))

    # -- per-source index maintenance ---------------------------------------------

    def _index_source_added(self, target: ObjectId, source: SiteId) -> None:
        self._by_source.setdefault(source, set()).add(target)

    def _index_source_removed(self, target: ObjectId, source: SiteId) -> None:
        members = self._by_source.get(source)
        if members is not None:
            members.discard(target)
            if not members:
                del self._by_source[source]

    # -- mutation ---------------------------------------------------------------

    def ensure(self, target: ObjectId, source: SiteId, distance: int = 1) -> InrefEntry:
        """Get-or-create the entry for ``target`` and record ``source``."""
        if target.site != self.site_id:
            raise GcInvariantError(
                f"inref target {target} does not belong to site {self.site_id}"
            )
        entry = self._entries.get(target)
        if entry is None:
            entry = InrefEntry(
                target=target,
                back_threshold=self.initial_back_threshold,
                _table=self,
            )
            self._entries[target] = entry
            self._order_dirty = True
            self.bump_structure()
        entry.add_source(source, distance)
        return entry

    def remove(self, target: ObjectId) -> None:
        entry = self._entries.pop(target, None)
        if entry is not None:
            for source in list(entry.sources):
                self._index_source_removed(target, source)
            self._barrier_flagged.discard(target)
            self.bump_structure()

    def remove_source(self, target: ObjectId, source: SiteId) -> None:
        """Apply an update-message removal; drop the entry when empty."""
        entry = self._entries.get(target)
        if entry is None:
            return
        entry.remove_source(source)
        if entry.empty:
            del self._entries[target]
            self._barrier_flagged.discard(target)
            self.bump_structure()

    # -- views used by the collector ----------------------------------------------

    def root_targets(self) -> List[ObjectId]:
        """Inref targets that serve as local-trace roots (not garbage-flagged)."""
        self._ensure_order()
        return [target for target, entry in self._entries.items() if not entry.garbage]

    def scan_for_trace(self) -> InrefScan:
        """Everything a local trace reads off this table, in one pass."""
        self._ensure_order()
        threshold = self._suspicion_threshold
        clean_keys: List[Tuple[int, ObjectId]] = []
        suspected_keys: List[Tuple[int, ObjectId]] = []
        distances: Dict[ObjectId, int] = {}
        clean_after_reset: Dict[ObjectId, bool] = {}
        for target, entry in self._entries.items():
            distance = entry.distance
            distances[target] = distance
            within = distance <= threshold
            if entry._garbage:
                clean_after_reset[target] = False
                continue
            clean_after_reset[target] = within
            if within or entry._barrier_clean:
                clean_keys.append((distance, target))
            else:
                suspected_keys.append((distance, target))
        clean_keys.sort()
        suspected_keys.sort()
        return InrefScan(
            clean_roots=[(target, distance) for distance, target in clean_keys],
            suspected_targets=[target for _, target in suspected_keys],
            distances=distances,
            clean_after_reset=clean_after_reset,
        )

    def clean_entries(self) -> List[InrefEntry]:
        self._ensure_order()
        return [e for e in self._entries.values() if e.is_clean(self.suspicion_threshold)]

    def suspected_entries(self) -> List[InrefEntry]:
        self._ensure_order()
        return [
            e for e in self._entries.values() if e.is_suspected(self.suspicion_threshold)
        ]

    def is_clean(self, target: ObjectId) -> bool:
        entry = self._entries.get(target)
        return entry is not None and entry.is_clean(self.suspicion_threshold)

    def reset_barrier_cleans(self) -> None:
        """Called when a local trace completes: barrier cleans expire."""
        flagged = self._barrier_flagged
        if not flagged:
            return
        for target in sorted(flagged):
            entry = self._entries.get(target)
            if entry is not None:
                entry.barrier_clean = False
        flagged.clear()  # targets flagged through an entry already removed

    def garbage_targets(self) -> List[ObjectId]:
        return [t for t, e in self._entries.items() if e.garbage]
