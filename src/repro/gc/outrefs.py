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

    ``barrier_clean`` is a property and pin/unpin notify the owning table
    (through ``_table``; a free-standing entry notifies nobody), so
    every semantically relevant change bumps the table's mutation epoch for
    the incremental local trace.  ``traced_clean``/``distance``/``inset`` are
    written only by the local trace commit itself and stay plain fields.
    """

    target: ObjectId
    distance: int = 1
    traced_clean: bool = True
    pin_count: int = 0
    inset: FrozenSet[ObjectId] = frozenset()
    visited: Set[TraceId] = field(default_factory=set)
    back_threshold: int = 0
    _barrier_clean: bool = field(default=False, repr=False)
    _table: Optional["OutrefTable"] = field(default=None, repr=False, compare=False)

    def _changed(self) -> None:
        if self._table is not None:
            self._table._mutation_epoch += 1

    @property
    def barrier_clean(self) -> bool:
        return self._barrier_clean

    @barrier_clean.setter
    def barrier_clean(self, value: bool) -> None:
        if value != self._barrier_clean:
            self._barrier_clean = value
            self._changed()

    @property
    def is_clean(self) -> bool:
        """Clean outrefs stop back traces with a Live verdict."""
        return self.traced_clean or self.barrier_clean or self.pin_count > 0

    @property
    def is_suspected(self) -> bool:
        return not self.is_clean

    def pin(self) -> None:
        """Insert barrier: retain this outref, clean, until the owner has
        received the insert message (section 6.1.2)."""
        self.pin_count += 1
        self._changed()

    def unpin(self) -> None:
        if self.pin_count <= 0:
            raise GcInvariantError(f"unbalanced unpin on outref {self.target}")
        self.pin_count -= 1
        self._changed()


class OutrefTable:
    """All outrefs of one site, keyed by the remote object id."""

    def __init__(self, site_id: SiteId, initial_back_threshold: int):
        self.site_id = site_id
        self.initial_back_threshold = initial_back_threshold
        self._entries: Dict[ObjectId, OutrefEntry] = {}
        self._mutation_epoch = 0
        self._order_dirty = False

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
            entry = OutrefEntry(
                target=target,
                distance=distance,
                traced_clean=clean,
                back_threshold=self.initial_back_threshold,
                _table=self,
            )
            self._entries[target] = entry
            self._order_dirty = True
            self.bump()
        return entry

    def remove(self, target: ObjectId) -> None:
        if self._entries.pop(target, None) is not None:
            self.bump()

    # -- the local trace's passes over the table --------------------------------
    #
    # One pass per phase: compute reads the table once, commit installs the
    # trace's verdicts on the entries it names and then walks the table once
    # for everything that wants the committed state.

    def scan_for_trace(self) -> Tuple[List[ObjectId], Set[ObjectId]]:
        """All targets in (sorted) table order, and the pinned ones."""
        self._ensure_order()
        pinned = {
            target for target, entry in self._entries.items() if entry.pin_count > 0
        }
        return list(self._entries), pinned

    def install_trace_states(
        self,
        states: Dict[ObjectId, Tuple[bool, int]],
        insets: Dict[ObjectId, FrozenSet[ObjectId]],
    ) -> None:
        """Install a local trace's verdict on every outref it reached.

        ``states`` maps target -> (clean, distance); suspected outrefs find
        their inset in ``insets``.  The table's mutation epoch moves only
        when a value actually changes, so a quiescent site's periodic full
        traces leave the next incremental tick free to skip.  Barrier cleans
        expire.
        """
        entries = self._entries
        no_inset: FrozenSet[ObjectId] = frozenset()
        for target, (clean, distance) in states.items():
            entry = entries.get(target)
            if entry is None:
                # Trimmed concurrently is impossible (the trace is the only
                # remover); but the trace may have reached a reference whose
                # entry is yet to be created.
                entry = self.ensure(target, clean=clean, distance=distance)
            inset = insets.get(target, no_inset)
            if (
                clean != entry.traced_clean
                or distance != entry.distance
                or inset != entry.inset
            ):
                entry.traced_clean = clean
                entry.distance = distance
                entry.inset = inset
                entry._changed()
            if entry._barrier_clean:
                entry.barrier_clean = False

    def scan_committed(
        self,
    ) -> Tuple[Dict[SiteId, Dict[ObjectId, int]], List[OutrefEntry]]:
        """Per target site, target -> distance; and the suspected entries.

        Both in deterministic (target) order, off one walk of the table.
        """
        self._ensure_order()
        by_site: Dict[SiteId, Dict[ObjectId, int]] = {}
        suspected: List[OutrefEntry] = []
        for target, entry in self._entries.items():
            site = target.site
            per_site = by_site.get(site)
            if per_site is None:
                per_site = by_site[site] = {}
            per_site[target] = entry.distance
            # ``entry.is_suspected``, without the two property calls.
            if not (entry.traced_clean or entry._barrier_clean or entry.pin_count > 0):
                suspected.append(entry)
        return by_site, suspected

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
        """Suspected entries in deterministic (target) order."""
        self._ensure_order()
        return [entry for entry in self._entries.values() if entry.is_suspected]

    def clean_entries(self) -> List[OutrefEntry]:
        self._ensure_order()
        return [entry for entry in self._entries.values() if entry.is_clean]

    def is_clean(self, target: ObjectId) -> bool:
        entry = self._entries.get(target)
        return entry is not None and entry.is_clean

    def inset_storage_units(self) -> int:
        """Total inset cardinality: the O(n_i * n_o) space of section 5.2."""
        return sum(len(entry.inset) for entry in self._entries.values())
