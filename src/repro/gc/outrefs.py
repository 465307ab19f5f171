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

An outref is a slot of the columns of :mod:`.columns`; its flags byte holds
the trace's clean verdict and the barrier flag, and pin counts live in
``_pins``, holding the pinned entries only.
"""

from __future__ import annotations

from typing import Container, Dict, FrozenSet, Iterable, List, Optional, Set, Tuple

from ..errors import GcInvariantError
from ..ids import ObjectId, SiteId
from .columns import NO_SET, IorefColumns, IorefEntry, new_handle

TRACED_CLEAN = 1

#: A verdict of a local trace on one outref: (clean, distance, inset).
Verdict = Tuple[bool, int, FrozenSet[ObjectId]]


class OutrefEntry(IorefEntry):
    """A handle on one outgoing reference: a remote id plus collector state."""

    __slots__ = ()

    @property
    def traced_clean(self) -> bool:
        """Whether the last local trace reached this outref from a clean
        root."""
        return bool(self.table._flags[self.at()] & TRACED_CLEAN)

    @traced_clean.setter
    def traced_clean(self, value: bool) -> None:
        self.table.set_traced_clean(self.target, value)

    @property
    def pin_count(self) -> int:
        self.at()
        return self.table._pins.get(self.target, 0)

    @property
    def inset(self) -> FrozenSet[ObjectId]:
        return self.table._sets[self.at()]

    @property
    def is_clean(self) -> bool:
        """Clean outrefs stop back traces with a Live verdict."""
        self.at()
        return self.table.is_clean(self.target)

    @property
    def is_suspected(self) -> bool:
        return not self.is_clean

    def pin(self) -> None:
        self.table.pin(self.target)

    def unpin(self) -> None:
        self.table.unpin(self.target)


class OutrefTable(IorefColumns):
    """All outrefs of one site, keyed by the remote object id.

    Beside the columns the table keeps what the local trace's passes would
    otherwise walk the whole table for, each exact at every instant:

    - ``_pins``: the pinned targets, with their pin counts;
    - ``_suspected``: the suspected targets (sorted lazily, like ``_slot``);
    - ``_changed``: the *changed set* -- every target created, removed or
      given a new distance since the last :meth:`scan_committed`, which the
      update diff reads instead of the table;
    - ``_touched``: every target removed, pinned from unpinned or unpinned
      to unpinned, given a verdict outside a trace commit, or created in a
      freed slot since the last :meth:`take_touched` (one created in a slot
      past ``_taken`` is touched without being named, so creating an entry
      costs no more) -- what the local trace must look at again beside the
      pieces of the heap that changed.
    """

    handle = OutrefEntry
    kind = "outref"

    def __init__(self, site_id: SiteId, initial_back_threshold: int):
        super().__init__(site_id, initial_back_threshold)
        self._mutation_epoch = 0
        self._pins: Dict[ObjectId, int] = {}
        self._suspected: Dict[ObjectId, None] = {}
        self._suspected_order_dirty = False
        self._changed: Set[ObjectId] = set()
        self._touched: Set[ObjectId] = set()
        self._taken = 0  # slots from here on were taken since take_touched

    # -- mutation epoch ----------------------------------------------------------

    @property
    def mutation_epoch(self) -> int:
        return self._mutation_epoch

    # -- mutation -----------------------------------------------------------------

    def ensure(self, target: ObjectId, clean: bool = True, distance: int = 1) -> OutrefEntry:
        """Get-or-create the entry for a remote reference."""
        if target.site == self.site_id:
            raise GcInvariantError(
                f"outref target {target} is local to site {self.site_id}"
            )
        slot = self._slot.get(target)
        if slot is None:
            if self._free:
                self._touched.add(target)  # a new slot past ``_taken`` is touched
            slot = self._take_slot(target, distance, TRACED_CLEAN if clean else 0)
            self._changed.add(target)
            if not clean:  # a new entry is neither pinned nor barrier-cleaned
                self._suspected[target] = None
                self._suspected_order_dirty = True
            self._mutation_epoch += 1
        return new_handle(OutrefEntry, (self, slot, self._targets[slot]))

    def remove(self, target: ObjectId) -> None:
        if target in self._slot:
            self._free_slot(target)
            self._pins.pop(target, None)
            self._suspected.pop(target, None)
            self._changed.add(target)
            self._touched.add(target)
            self._mutation_epoch += 1

    def _restate(self, target: ObjectId, slot: int) -> None:
        """File ``target`` as suspected or not, after its state moved."""
        if self._flags[slot] or target in self._pins:
            self._suspected.pop(target, None)
        elif target not in self._suspected:
            self._suspected[target] = None
            self._suspected_order_dirty = True

    def set_barrier_clean(self, target: ObjectId, value: bool) -> None:
        slot = self._flip_barrier(target, value)
        if slot is not None:
            self._mutation_epoch += 1
            self._restate(target, slot)

    def set_traced_clean(self, target: ObjectId, value: bool) -> None:
        """Overwrite the trace's clean verdict outside a trace commit, which
        moves no epoch (tests stage suspected outrefs this way)."""
        slot = self._slot[target]
        flags = self._flags[slot]
        self._flags[slot] = flags | TRACED_CLEAN if value else flags & ~TRACED_CLEAN
        self._touched.add(target)
        self._restate(target, slot)

    def pin(self, target: ObjectId) -> None:
        """Insert barrier: retain this outref, clean, until the owner has
        received the insert message (section 6.1.2)."""
        slot = self._slot[target]
        count = self._pins.get(target, 0)
        if not count:
            self._touched.add(target)
        self._pins[target] = count + 1
        self._mutation_epoch += 1
        self._restate(target, slot)

    def unpin(self, target: ObjectId) -> None:
        slot = self._slot[target]
        count = self._pins.get(target, 0)
        if count <= 0:
            raise GcInvariantError(f"unbalanced unpin on outref {target}")
        if count == 1:
            del self._pins[target]
            self._touched.add(target)
        else:
            self._pins[target] = count - 1
        self._mutation_epoch += 1
        self._restate(target, slot)

    # -- the local trace's passes over the table --------------------------------
    #
    # Compute reads the table once and diffs its verdicts against the
    # columns; commit installs the verdicts that moved and reads the changed
    # set for everything that wants the committed state.

    def take_touched(self) -> Set[ObjectId]:
        """The targets touched since the last call (see the class
        docstring), leaving none named."""
        touched, self._touched = self._touched, set()
        if self._taken < self._top:
            targets = self._targets
            touched.update(filter(None, map(targets.__getitem__, range(self._taken, self._top))))
            self._taken = self._top
        return touched

    def insets_of(self, targets: Iterable[ObjectId]) -> Dict[ObjectId, FrozenSet[ObjectId]]:
        """Per target, the inset its entry holds."""
        slots, held = self._slot, self._sets
        return {target: held[slots[target]] for target in targets}

    def is_pinned(self, target: ObjectId) -> bool:
        return target in self._pins

    def diff_verdicts(
        self,
        states: Dict[ObjectId, Tuple[bool, int]],
        insets: Dict[ObjectId, FrozenSet[ObjectId]],
    ) -> Dict[ObjectId, Verdict]:
        """A local trace's verdicts that differ from the installed ones.

        ``states`` maps each reached target to (clean, distance); suspected
        outrefs find their inset in ``insets``, and every other one has an
        empty inset.  A target without an entry always differs.  Changes
        nothing.
        """
        slot_of, distances, flags, held = self._slot.get, self._distance, self._flags, self._sets
        changes: Dict[ObjectId, Verdict] = {}
        for target, (clean, distance) in states.items():
            inset = NO_SET if clean else insets.get(target, NO_SET)
            slot = slot_of(target)
            if (
                slot is None
                or distances[slot] != distance
                or (flags[slot] & TRACED_CLEAN) != clean
                or held[slot] != inset
            ):
                changes[target] = (clean, distance, inset)
        return changes

    def install_trace_states(
        self, changes: Dict[ObjectId, Verdict], reached: Container[ObjectId]
    ) -> None:
        """Install the verdicts of :meth:`diff_verdicts` (an entry yet to
        be created is created), and expire the barrier cleans on the outrefs
        the trace ``reached``.  The mutation epoch moves once per entry that
        moves, so a quiescent site's periodic full traces leave the next
        incremental tick free to skip."""
        slot_of, distances, flags = self._slot.get, self._distance, self._flags
        installs = 0
        for target, (clean, distance, inset) in changes.items():
            slot = slot_of(target)
            if slot is None:
                # Born with this trace's verdict: the trace need not look at
                # it again for being new.
                untaken = self._taken == self._top and not self._free
                self.ensure(target, clean=clean, distance=distance)
                if untaken:
                    self._taken = self._top
                else:
                    self._touched.discard(target)
                if not inset:
                    continue  # born with the verdict
                slot = self._slot[target]
            installs += 1
            if distance != distances[slot]:
                distances[slot] = distance
                self._changed.add(target)
            flag = flags[slot]
            flags[slot] = flag | TRACED_CLEAN if clean else flag & ~TRACED_CLEAN
            self._sets[slot] = inset
            self._restate(target, slot)
        self._mutation_epoch += installs
        for target in [t for t in self._barrier_flagged if t in reached]:
            self.set_barrier_clean(target, False)

    def scan_committed(self) -> Dict[SiteId, List[Tuple[ObjectId, Optional[int]]]]:
        """What changed since the last call, without walking the table:
        per target site, each target of the changed set with its distance
        now (``None`` once removed), in target order.  Empties the changed
        set."""
        changed, self._changed = self._changed, set()
        by_site: Dict[SiteId, List[Tuple[ObjectId, Optional[int]]]] = {}
        slot_of, distances = self._slot.get, self._distance
        for target in sorted(changed):
            slot = slot_of(target)
            by_site.setdefault(target.site, []).append(
                (target, None if slot is None else distances[slot])
            )
        return by_site

    def distances_by_site(self) -> Dict[SiteId, Dict[ObjectId, int]]:
        """Per target site, target -> distance over the whole table, in
        (target) order: what a full update ships.  Empties the changed set,
        since a full update leaves nothing to diff."""
        self._ensure_order()
        self._changed = set()
        distances = self._distance
        by_site: Dict[SiteId, Dict[ObjectId, int]] = {}
        for target, slot in self._slot.items():
            per_site = by_site.get(target.site)
            if per_site is None:
                per_site = by_site[target.site] = {}
            per_site[target] = distances[slot]
        return by_site

    def distances_to(self, site: SiteId) -> Tuple[Tuple[ObjectId, int], ...]:
        """``(target, distance)`` for every outref into ``site``, in target
        order: what a full update to it ships."""
        self._ensure_order()
        distances = self._distance
        return tuple((t, distances[s]) for t, s in self._slot.items() if t.site == site)

    def check_changed(self, shipped: Dict[SiteId, Dict[ObjectId, int]]) -> None:
        """Assert the records beside the columns (see also
        :meth:`check_slots`): pinned and suspected targets are exact, and every target
        whose distance differs from ``shipped`` (what the last update diff
        left each peer holding) is in the changed set (test/debug support;
        O(n))."""
        self.check_slots()
        slots, flags = self._slot, self._flags
        assert self._pins.keys() <= slots.keys() and all(
            count > 0 for count in self._pins.values()
        ), "pinned record drift"
        assert self._suspected.keys() == {
            t for t, s in slots.items() if not flags[s] and t not in self._pins
        }, "suspected record drift"
        for site in {t.site for t in slots} | set(shipped):
            held = shipped.get(site, {})
            for target in held.keys() | {t for t in slots if t.site == site}:
                slot = slots.get(target)
                now = None if slot is None else self._distance[slot]
                assert now == held.get(target) or target in self._changed, (
                    f"outref {target} changed unrecorded"
                )

    # -- views ---------------------------------------------------------------------

    def _suspected_in_order(self) -> Dict[ObjectId, None]:
        if self._suspected_order_dirty:
            self._suspected = dict.fromkeys(sorted(self._suspected))
            self._suspected_order_dirty = False
        return self._suspected

    def suspected_entries(self) -> List[OutrefEntry]:
        """Suspected entries in deterministic (target) order, off the
        suspected record rather than the table."""
        slots = self._slot
        return [new_handle(OutrefEntry, (self, slots[t], t)) for t in self._suspected_in_order()]

    def past_back_threshold(self) -> List[ObjectId]:
        """Section 4.3's trigger: the suspected outrefs whose distance
        exceeds their back threshold, in target order."""
        slots, distances, back = self._slot, self._distance, self._back
        return [t for t in self._suspected_in_order() if distances[s := slots[t]] > back[s]]

    def is_clean(self, target: ObjectId) -> bool:
        slot = self._slot.get(target)
        return slot is not None and bool(self._flags[slot] or target in self._pins)
