"""Outref table: outgoing inter-site references.

Each entry records one remote reference held somewhere in this site's heap.
The local trace refreshes outref distances (one more than the distance of the
first inref/root that reaches them) and trims entries no longer reachable,
reporting removals and distance changes to target sites in update messages.

For *suspected* outrefs the table also stores the **inset** -- the set of
suspected inrefs the outref is locally reachable from (section 4.1) -- which
back traces consume when taking local steps.  Insets are computed by
:mod:`repro.core.backinfo` during the local trace.

Cleanliness: an outref is clean when the last local trace reached it from a
clean root/inref, when the transfer barrier cleaned it since then, or while
the insert barrier pins it (section 6.1.2).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, FrozenSet, Iterator, List, Optional, Set, Tuple

from ..errors import GcInvariantError
from ..ids import ObjectId, SiteId, TraceId


@dataclass(slots=True)
class OutrefEntry:
    """One outgoing reference: a remote object id plus collector state.

    ``barrier_clean`` and ``traced_clean`` are properties and pin/unpin
    notify the owning table (through ``_table``; a free-standing entry
    notifies nobody), so the table's records of pinned, barrier-cleaned and
    suspected entries stay exact, and every semantically relevant change
    bumps its mutation epoch for the incremental local trace (a bare
    ``traced_clean`` write, which only tests make, bumps nothing).
    ``distance``/``inset`` are written only by the local trace commit
    itself (:meth:`OutrefTable.install_trace_states`) and stay plain fields.
    """

    target: ObjectId
    distance: int = 1
    _traced_clean: bool = field(default=True, repr=False)
    pin_count: int = 0
    inset: FrozenSet[ObjectId] = frozenset()
    visited: Set[TraceId] = field(default_factory=set)
    back_threshold: int = 0
    _barrier_clean: bool = field(default=False, repr=False)
    _table: Optional["OutrefTable"] = field(default=None, repr=False, compare=False)

    def _changed(self) -> None:
        table = self._table
        if table is not None:
            table._mutation_epoch += 1
            table._restate(self)

    @property
    def traced_clean(self) -> bool:
        """Whether the last local trace reached this outref from a clean
        root."""
        return self._traced_clean

    @traced_clean.setter
    def traced_clean(self, value: bool) -> None:
        self._traced_clean = value
        table = self._table
        if table is not None:
            table._installed[self.target] = self.distance if value else ~self.distance
            table._restate(self)

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
            self._changed()

    @property
    def is_clean(self) -> bool:
        """Clean outrefs stop back traces with a Live verdict."""
        return self._traced_clean or self._barrier_clean or self.pin_count > 0

    @property
    def is_suspected(self) -> bool:
        return not self.is_clean

    def pin(self) -> None:
        """Insert barrier: retain this outref, clean, until the owner has
        received the insert message (section 6.1.2)."""
        self.pin_count += 1
        if self.pin_count == 1 and self._table is not None:
            self._table._pinned.add(self.target)
        self._changed()

    def unpin(self) -> None:
        if self.pin_count <= 0:
            raise GcInvariantError(f"unbalanced unpin on outref {self.target}")
        self.pin_count -= 1
        if self.pin_count == 0 and self._table is not None:
            self._table._pinned.discard(self.target)
        self._changed()


class OutrefTable:
    """All outrefs of one site, keyed by the remote object id.

    Beside the entries the table keeps what the local trace's passes would
    otherwise walk the whole table for, each exact at every instant:

    - ``_pinned`` / ``_barrier_flagged``: the pinned and the
      barrier-cleaned targets;
    - ``_suspected``: the suspected entries (sorted lazily, like
      ``_entries``);
    - ``_installed`` / ``_insets``: each entry's distance (bit-inverted
      when not traced clean) and its inset when not empty, as the trace
      commit compares them;
    - ``_changed``: the *changed set* -- every target created, removed or
      given a new distance since the last :meth:`scan_committed`, which the
      update diff reads instead of the table.
    """

    def __init__(self, site_id: SiteId, initial_back_threshold: int):
        self.site_id = site_id
        self.initial_back_threshold = initial_back_threshold
        self._entries: Dict[ObjectId, OutrefEntry] = {}
        self._mutation_epoch = 0
        self._order_dirty = False
        self._pinned: Set[ObjectId] = set()
        self._barrier_flagged: Set[ObjectId] = set()
        self._suspected: Dict[ObjectId, OutrefEntry] = {}
        self._suspected_order_dirty = False
        self._installed: Dict[ObjectId, int] = {}
        self._insets: Dict[ObjectId, FrozenSet[ObjectId]] = {}
        self._changed: Set[ObjectId] = set()

    # -- mutation epoch ----------------------------------------------------------

    @property
    def mutation_epoch(self) -> int:
        return self._mutation_epoch

    def bump(self) -> None:
        self._mutation_epoch += 1

    # -- basic access -----------------------------------------------------------

    def get(self, target: ObjectId) -> Optional[OutrefEntry]:
        return self._entries.get(target)

    def require(self, target: ObjectId) -> OutrefEntry:
        entry = self._entries.get(target)
        if entry is None:
            raise GcInvariantError(f"site {self.site_id} has no outref for {target}")
        return entry

    def __contains__(self, target: ObjectId) -> bool:
        return target in self._entries

    def __len__(self) -> int:
        return len(self._entries)

    def entries(self) -> Iterator[OutrefEntry]:
        """All entries in deterministic (target) order.

        The sorted order is an invariant maintained on mutation (lazily: the
        first read after an insert re-sorts, deletions preserve order), so
        per-trace consumers -- update building, the back-trace trigger check
        -- never pay a ``sorted()`` of their own.
        """
        self._ensure_order()
        return iter(self._entries.values())

    def targets(self) -> List[ObjectId]:
        """All targets, same deterministic (target) order as :meth:`entries`."""
        self._ensure_order()
        return list(self._entries)

    # -- mutation -----------------------------------------------------------------

    def ensure(self, target: ObjectId, clean: bool = True, distance: int = 1) -> OutrefEntry:
        """Get-or-create the entry for a remote reference."""
        if target.site == self.site_id:
            raise GcInvariantError(
                f"outref target {target} is local to site {self.site_id}"
            )
        entry = self._entries.get(target)
        if entry is None:
            entry = self._entries[target] = OutrefEntry(
                target, distance, clean, back_threshold=self.initial_back_threshold, _table=self
            )
            self._order_dirty = True
            self._installed[target] = distance if clean else ~distance
            self._changed.add(target)
            if not clean:  # a new entry is neither pinned nor barrier-cleaned
                self._suspected[target] = entry
                self._suspected_order_dirty = True
            self._mutation_epoch += 1
        return entry

    def remove(self, target: ObjectId) -> None:
        if self._entries.pop(target, None) is not None:
            self._pinned.discard(target)
            self._barrier_flagged.discard(target)
            self._suspected.pop(target, None)
            self._installed.pop(target, None)
            self._insets.pop(target, None)
            self._changed.add(target)
            self.bump()

    def _restate(self, entry: OutrefEntry) -> None:
        """File ``entry`` as suspected or not, after its state moved."""
        target = entry.target
        if entry._traced_clean or entry._barrier_clean or entry.pin_count > 0:
            self._suspected.pop(target, None)
        elif target not in self._suspected:
            self._suspected[target] = entry
            self._suspected_order_dirty = True

    # -- the local trace's passes over the table --------------------------------
    #
    # One pass per phase: compute reads the table once, commit installs the
    # trace's verdicts on the entries it names and then walks the table once
    # for everything that wants the committed state.

    def scan_for_trace(self) -> Tuple[List[ObjectId], Set[ObjectId]]:
        """All targets in (sorted) table order, and the pinned ones."""
        self._ensure_order()
        return list(self._entries), set(self._pinned)

    def install_trace_states(
        self,
        states: Dict[ObjectId, Tuple[bool, int]],
        insets: Dict[ObjectId, FrozenSet[ObjectId]],
    ) -> None:
        """Install a local trace's verdict on every outref it reached.

        ``states`` maps target -> (clean, distance); suspected outrefs find
        their inset in ``insets``.  Only the entries whose verdict differs
        from what they hold are visited, found by comparing ``states`` and
        ``insets`` with ``_installed`` and ``_insets``; the table's
        mutation epoch moves once per such entry, so a quiescent site's
        periodic full traces leave the next incremental tick free to skip.
        Barrier cleans on the reached outrefs expire.
        """
        entries = self._entries
        installed, held_insets = self._installed, self._insets
        suspected = self._suspected
        no_inset: FrozenSet[ObjectId] = frozenset()
        installed_get, held_get = installed.get, held_insets.get
        moved = [
            target
            for target, (clean, distance) in states.items()
            if installed_get(target) != (distance if clean else ~distance)
        ]
        moved += [t for t, inset in insets.items() if held_get(t) != inset]
        moved += [t for t in held_insets if t not in insets and t in states]
        installs = 0
        for target in set(moved):
            clean, distance = states[target]
            inset = insets.get(target, no_inset)
            entry = entries.get(target)
            if entry is None:
                # Trimmed concurrently is impossible (the trace is the only
                # remover); but the trace may have reached a reference whose
                # entry is yet to be created.
                entry = self.ensure(target, clean=clean, distance=distance)
                if not inset:
                    continue  # born with the verdict
            # The records are exact, so a target named here really moves.
            installs += 1
            if distance != entry.distance:
                entry.distance = distance
                self._changed.add(target)
            entry._traced_clean = clean
            entry.inset = inset
            installed[target] = distance if clean else ~distance
            if inset:
                held_insets[target] = inset
            else:
                held_insets.pop(target, None)
            if clean or entry._barrier_clean or entry.pin_count > 0:
                suspected.pop(target, None)
            elif target not in suspected:
                suspected[target] = entry
                self._suspected_order_dirty = True
        self._mutation_epoch += installs
        for target in [t for t in self._barrier_flagged if t in states]:
            entries[target].barrier_clean = False

    def scan_committed(
        self,
    ) -> Tuple[Dict[SiteId, List[Tuple[ObjectId, Optional[int]]]], List[OutrefEntry]]:
        """What changed since the last call, and the suspected entries.

        The first is, per target site, each target of the changed set with
        its distance now (``None`` once removed); the second the suspected
        entries.  Both in deterministic (target) order, and neither walks
        the table.  Empties the changed set.
        """
        changed, self._changed = self._changed, set()
        by_site: Dict[SiteId, List[Tuple[ObjectId, Optional[int]]]] = {}
        entries = self._entries
        for target in sorted(changed):
            entry = entries.get(target)
            by_site.setdefault(target.site, []).append(
                (target, None if entry is None else entry.distance)
            )
        return by_site, self.suspected_entries()

    def distances_by_site(self) -> Dict[SiteId, Dict[ObjectId, int]]:
        """Per target site, target -> distance over the whole table, in
        (target) order: what a full update ships.  Empties the changed set,
        since a full update leaves nothing to diff."""
        self._ensure_order()
        self._changed = set()
        by_site: Dict[SiteId, Dict[ObjectId, int]] = {}
        for target, entry in self._entries.items():
            per_site = by_site.get(target.site)
            if per_site is None:
                per_site = by_site[target.site] = {}
            per_site[target] = entry.distance
        return by_site

    def check_changed(self, shipped: Dict[SiteId, Dict[ObjectId, int]]) -> None:
        """Assert the records beside the entries: pinned, barrier-cleaned,
        suspected and installed state are exact, and every target whose
        distance differs from ``shipped`` (what the last update diff left
        each peer holding) is in the changed set (test/debug support; O(n))."""
        entries = self._entries
        assert self._pinned == {t for t, e in entries.items() if e.pin_count > 0}, (
            "pinned record drift"
        )
        assert self._barrier_flagged == {
            t for t, e in entries.items() if e._barrier_clean
        }, "barrier record drift"
        assert self._suspected.keys() == {
            t for t, e in entries.items() if e.is_suspected
        }, "suspected record drift"
        assert all(self._suspected[t] is entries[t] for t in self._suspected)
        assert self._installed == {
            t: e.distance if e._traced_clean else ~e.distance for t, e in entries.items()
        }, "installed record drift"
        assert self._insets == {t: e.inset for t, e in entries.items() if e.inset}, (
            "inset record drift"
        )
        for site in {t.site for t in entries} | set(shipped):
            held = shipped.get(site, {})
            for target in held.keys() | {t for t in entries if t.site == site}:
                entry = entries.get(target)
                now = None if entry is None else entry.distance
                assert now == held.get(target) or target in self._changed, (
                    f"outref {target} changed unrecorded"
                )

    # -- views ---------------------------------------------------------------------

    def _ensure_order(self) -> None:
        """Keep ``_entries`` sorted by target, re-sorting only after inserts.

        Deletions preserve order, so in steady state the views below iterate
        an already-ordered dict and callers (the per-tick back-trace trigger
        check in particular) never pay a per-call ``sorted()``.
        """
        if self._order_dirty:
            self._entries = dict(sorted(self._entries.items()))
            self._order_dirty = False

    def suspected_entries(self) -> List[OutrefEntry]:
        """Suspected entries in deterministic (target) order, off the
        suspected record rather than the table."""
        if self._suspected_order_dirty:
            self._suspected = dict(sorted(self._suspected.items()))
            self._suspected_order_dirty = False
        return list(self._suspected.values())

    def clean_entries(self) -> List[OutrefEntry]:
        self._ensure_order()
        return [entry for entry in self._entries.values() if entry.is_clean]

    def is_clean(self, target: ObjectId) -> bool:
        entry = self._entries.get(target)
        return entry is not None and entry.is_clean

    def inset_storage_units(self) -> int:
        """Total inset cardinality: the O(n_i * n_o) space of section 5.2."""
        return sum(len(entry.inset) for entry in self._entries.values())
