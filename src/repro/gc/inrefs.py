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

from bisect import bisect_left, insort
from dataclasses import dataclass, field
from itertools import compress
from operator import itemgetter, ne
from typing import Dict, FrozenSet, Iterator, List, NamedTuple, Optional, Set, Tuple

from ..errors import GcInvariantError
from ..ids import ObjectId, SiteId, TraceId

INFINITE_DISTANCE = 10**9
"""Sentinel for 'unreachable'; the paper's 'distance of garbage is infinity'."""

#: Write and delete on a source map without its notification, for
#: :meth:`InrefEntry.move_source`, which does the notifying itself.
_set_source = dict.__setitem__
_del_source = dict.__delitem__


class _SourceMap(dict):
    """Per-source distance map that notifies its entry on every change.

    Tests and scenario builders routinely poke ``entry.sources[site] = d``
    (or ``.update(...)``, ``.clear()``, ...) directly; every mutator is
    routed through :meth:`InrefEntry.move_source`, so those writes still
    refresh ``entry.distance``, maintain the table's per-source index and
    advance the epochs the incremental trace depends on.  Each reads the
    old distance once and hands it on.
    """

    __slots__ = ("entry",)

    def __init__(self, entry: "InrefEntry", initial=()):
        super().__init__(initial)
        self.entry = entry

    def __setitem__(self, site: SiteId, distance: int) -> None:
        old = self.get(site)
        if old != distance:
            self.entry.move_source(site, old, distance)

    def __delitem__(self, site: SiteId) -> None:
        self.entry.move_source(site, self[site], None)

    def pop(self, site, *default):
        old = self.get(site)
        if old is None:
            return super().pop(site, *default)
        self.entry.move_source(site, old, None)
        return old

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
    changes flow through :class:`_SourceMap` and bump the distance epoch
    when they move the entry's minimum distance.
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
    # current by ``move_source`` (read-only for everyone else).
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
        table = self._table
        if table is not None:
            table._structure_epoch += 1
            table._changed.add(self.target)

    def move_source(self, site: SiteId, old: Optional[int], new: Optional[int]) -> None:
        """Move ``site``'s distance from ``old`` to ``new`` (None: absent).

        The one writer of the source map: ``old`` is what the caller just
        read there, so each distance is read once.  The minimum is kept
        incrementally: a lower distance is the new minimum outright, and
        only raising or removing the current minimum takes a pass over the
        sources.  A local trace reads only the minimum, so only a new
        minimum advances the distance epoch.
        """
        sources = self.sources
        if new is None:
            _del_source(sources, site)
        else:
            _set_source(sources, site, new)
        current = self.distance
        if new is not None and new < current:
            distance = new
        elif old == current and (new is None or new > current):
            distance = min(sources.values()) if sources else INFINITE_DISTANCE
        else:
            distance = current
        table = self._table
        if table is not None:
            if old is None:
                table._index_source_added(self.target, site)
            elif new is None:
                table._index_source_removed(self.target, site)
            if distance != current:
                table._distance_epoch += 1
                table._changed.add(self.target)
        self.distance = distance

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
        if current is None or distance < current:
            self.move_source(site, current, distance)

    def set_source_distance(self, site: SiteId, distance: int) -> None:
        """Apply a distance carried by an update message (authoritative).

        News about a source the entry does not list is stale (it may have
        been dropped concurrently) and is ignored.
        """
        current = self.sources.get(site)
        if current is not None and current != distance:
            self.move_source(site, current, distance)

    def remove_source(self, site: SiteId) -> None:
        self.sources.pop(site, None)

    @property
    def empty(self) -> bool:
        """True when no source remains; the entry should then be deleted."""
        return not self.sources


class InrefScan(NamedTuple):
    """What the inref table tells a local trace.

    ``clean_roots`` and ``suspected_targets`` are in increasing
    ``(distance, target)`` order (the trace order of section 3) and leave out
    garbage-flagged entries.  ``distances`` holds every entry's distance.
    """

    clean_roots: List[Tuple[ObjectId, int]]
    suspected_targets: List[ObjectId]
    distances: Dict[ObjectId, int]


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
        # -- what the last scan filed, kept between traces --------------------
        #
        # ``scan_for_trace`` keeps the trace order sorted across calls and
        # re-files only the targets named in ``_changed``: every entry whose
        # distance, garbage flag or clean state moved since, and every entry
        # created or removed.  ``_clean_keys`` and ``_suspected_keys`` hold
        # ``(distance, target)`` keys in order, ``_clean_roots`` the clean
        # ones again as the ``(target, distance)`` roots a trace takes;
        # ``_filed`` maps each target to its key (the same object), or to
        # None for a garbage-flagged entry; ``_distances`` every entry's
        # distance as last filed.
        self._changed: Set[ObjectId] = set()
        self._filed: Dict[ObjectId, Optional[Tuple[int, ObjectId]]] = {}
        self._clean_keys: List[Tuple[int, ObjectId]] = []
        self._clean_roots: List[Tuple[ObjectId, int]] = []
        self._suspected_keys: List[Tuple[int, ObjectId]] = []
        self._distances: Dict[ObjectId, int] = {}
        # Each entry's outset as the last ``install_outsets`` set it, for the
        # entries it named (see there).
        self._outsets: Dict[ObjectId, FrozenSet[ObjectId]] = {}

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
            self._changed.update(self._entries)

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
        if entry is not None:
            entry.add_source(source, distance)
            return entry
        # A new entry is born with its source, and its table is told once.
        entry = self._entries[target] = InrefEntry(
            target, {source: distance}, back_threshold=self.initial_back_threshold, _table=self
        )
        self._order_dirty = True
        self._structure_epoch += 1
        if distance != INFINITE_DISTANCE:  # its minimum moved from infinity
            self._distance_epoch += 1
        self._changed.add(target)
        self._by_source.setdefault(source, set()).add(target)
        return entry

    def remove(self, target: ObjectId) -> None:
        entry = self._entries.pop(target, None)
        if entry is not None:
            for source in list(entry.sources):
                self._index_source_removed(target, source)
            self._dropped(target)

    def remove_source(self, target: ObjectId, source: SiteId) -> None:
        """Apply an update-message removal; drop the entry when empty."""
        entry = self._entries.get(target)
        if entry is None:
            return
        entry.remove_source(source)
        if entry.empty:
            del self._entries[target]
            self._dropped(target)

    def _dropped(self, target: ObjectId) -> None:
        """Book-keeping for an entry just taken out of ``_entries``."""
        self._barrier_flagged.discard(target)
        self._outsets.pop(target, None)
        self._changed.add(target)
        self.bump_structure()

    # -- views used by the collector ----------------------------------------------

    def root_targets(self) -> List[ObjectId]:
        """Inref targets that serve as local-trace roots (not garbage-flagged)."""
        self._ensure_order()
        return [target for target, entry in self._entries.items() if not entry.garbage]

    def scan_for_trace(self) -> InrefScan:
        """Everything a local trace reads off this table.

        Re-files only the entries changed since the last call (see
        ``_changed``); the rest of the trace order is kept from it.  The
        ``distances`` it returns is the table's own record, valid until the
        table next changes.
        """
        changed = self._changed
        if changed:
            self._changed = set()
            filed = self._filed
            entries = self._entries
            distances = self._distances
            threshold = self._suspicion_threshold
            clean_keys, clean_roots = self._clean_keys, self._clean_roots
            suspected_keys = self._suspected_keys
            for target in changed:
                key = filed.pop(target, None)
                if key is not None:
                    at = bisect_left(clean_keys, key)
                    if at < len(clean_keys) and clean_keys[at] is key:
                        del clean_keys[at]
                        del clean_roots[at]
                    else:
                        del suspected_keys[bisect_left(suspected_keys, key)]
                entry = entries.get(target)
                if entry is None:
                    distances.pop(target, None)
                    continue
                distance = distances[target] = entry.distance
                if entry._garbage:
                    filed[target] = None
                    continue
                key = filed[target] = (distance, target)
                if distance <= threshold or entry._barrier_clean:
                    at = bisect_left(clean_keys, key)
                    clean_keys.insert(at, key)
                    clean_roots.insert(at, (target, distance))
                else:
                    insort(suspected_keys, key)
        return InrefScan(
            clean_roots=list(self._clean_roots),
            suspected_targets=list(map(itemgetter(1), self._suspected_keys)),
            distances=self._distances,
        )

    def install_outsets(self, outsets: Dict[ObjectId, FrozenSet[ObjectId]]) -> None:
        """Give each entry its outset from a local trace (empty when the
        trace computed none), touching only the entries whose outset
        moves: ``_outsets`` holds what the last call set, for the entries
        it named."""
        entries = self._entries
        installed = self._outsets
        for target in list(
            compress(outsets, map(ne, map(installed.get, outsets), outsets.values()))
        ):
            entry = entries.get(target)
            if entry is not None:
                entry.outset = installed[target] = outsets[target]
        no_outset: FrozenSet[ObjectId] = frozenset()
        for target in installed.keys() - outsets.keys():
            entries[target].outset = no_outset
            del installed[target]

    def check_changed(self) -> None:
        """Assert the premise the incremental scan rests on: every entry
        filed otherwise than it now classifies, and every filed target
        gone, is named in ``_changed``; the kept order is sorted and every
        outset matches its record (test/debug support; O(n log n))."""
        threshold = self._suspicion_threshold
        clean, suspected = set(self._clean_keys), set(self._suspected_keys)
        for target, entry in self._entries.items():
            key = (entry.distance, target)
            if entry._garbage:
                filed = self._filed.get(target, ()) is None
            elif entry.distance <= threshold or entry._barrier_clean:
                filed = self._filed.get(target) == key and key in clean
            else:
                filed = self._filed.get(target) == key and key in suspected
            filed = filed and self._distances.get(target) == entry.distance
            assert filed or target in self._changed, f"inref {target} changed unrecorded"
            assert entry.outset == self._outsets.get(target, frozenset()), (
                f"inref {target} outset drift"
            )
        for target in self._filed.keys() | self._distances.keys():
            assert target in self._entries or target in self._changed, (
                f"inref {target} removed unrecorded"
            )
        keys = [key for key in self._filed.values() if key is not None]
        assert len(keys) == len(self._clean_keys) + len(self._suspected_keys)
        assert self._outsets.keys() <= self._entries.keys(), "outset of a removed inref"
        for kept in (self._clean_keys, self._suspected_keys):
            assert kept == sorted(kept), "inref trace order"
        assert self._clean_roots == [(t, d) for d, t in self._clean_keys]

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
