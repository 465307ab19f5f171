"""Controlled migration (the authors' own earlier scheme, [ML95] / [Bis77]).

Suspects are found with the same distance heuristic as the main collector;
instead of back tracing, a suspected object is **migrated** to one of the
sites referencing it.  A garbage cycle's objects thereby converge onto a
single site, where plain local tracing collects them.  Live suspects migrate
too (wasted work), and every migration must patch the references held at
other sites -- the costs the paper cites when arguing back tracing is
cheaper:

- a migration message carries the whole object (``payload_size`` units, vs
  constant-size back-trace messages);
- every site holding the reference receives a patch message rewriting it;
- systems may forbid migration outright (security/autonomy/heterogeneity),
  which this baseline cannot work around.

Migration keeps object ids stable by allocating a *new* id at the
destination and rewriting all references: the owner deletes the original and
the destination informs every recorded source.  The simulation charges one
``MigrateObject`` (sized) plus one ``PatchRefs`` per source site.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Tuple

from ..ids import ObjectId, SiteId
from ..net.message import Message, Payload
from ..sim.simulation import Simulation


@dataclass(frozen=True)
class MigrateObject(Payload):
    """Ship one object's state to a destination site."""

    old_id: ObjectId
    refs: Tuple[ObjectId, ...]
    payload_size: int
    # Sites (other than the destination) that hold references to old_id and
    # must be patched, with their recorded distance estimates.
    sources: Tuple[Tuple[SiteId, int], ...]

    def size_units(self) -> int:
        return max(1, self.payload_size)

    def carried_refs(self) -> Tuple[ObjectId, ...]:
        return self.refs


@dataclass(frozen=True)
class PatchRefs(Payload):
    """Rewrite every reference old_id -> new_id at the receiving site."""

    old_id: ObjectId
    new_id: ObjectId


class MigrationCollector:
    """Distance-triggered migration of suspected objects."""

    def __init__(self, sim: Simulation, migration_threshold: Optional[int] = None):
        self.sim = sim
        gc = sim.config.gc
        self.migration_threshold = (
            migration_threshold
            if migration_threshold is not None
            else gc.initial_back_threshold
        )
        self.objects_migrated = 0
        self.units_migrated = 0
        for site in sim.sites.values():
            site.register_handler(MigrateObject, self._on_migrate)
            site.register_handler(PatchRefs, self._on_patch)

    # -- policy --------------------------------------------------------------------------

    def check_migrations(self, site_id: SiteId) -> List[ObjectId]:
        """Migrate each sufficiently suspected inref target off this site.

        The destination is the source site with the smallest id -- a simple
        deterministic rule; ML95 discusses smarter destination choices, but
        any consistent rule converges a cycle onto one site.
        """
        site = self.sim.site(site_id)
        migrated: List[ObjectId] = []
        for target in sorted(site.inrefs.targets()):
            entry = site.inrefs.get(target)
            if entry is None or entry.garbage:
                continue
            if entry.distance <= self.migration_threshold:
                continue
            if not site.heap.contains(target):
                continue
            if (
                target in site.heap.persistent_roots
                or target in site.heap.variable_roots
            ):
                # Rooted objects are definitely live; never migrate them.
                continue
            destination = min(entry.sources)
            if destination == site_id:
                continue
            self._migrate(site_id, target, destination)
            migrated.append(target)
        return migrated

    def run_round(self, settle_time: float = 50.0) -> None:
        """One round: local traces (distance propagation) + migrations."""
        self.sim.run_gc_round(settle_time)
        for site_id in sorted(self.sim.sites):
            if not self.sim.site(site_id).crashed:
                self.check_migrations(site_id)
            self.sim.run_for(settle_time)
        self.sim.settle(settle_time)

    # -- mechanics ------------------------------------------------------------------------

    def _migrate(self, site_id: SiteId, target: ObjectId, destination: SiteId) -> None:
        site = self.sim.site(site_id)
        obj = site.heap.get(target)
        units = max(1, obj.payload_size)
        entry = site.inrefs.require(target)
        sources = tuple(
            (source, distance)
            for source, distance in sorted(entry.sources.items())
        )
        site.send(
            destination,
            MigrateObject(
                old_id=target,
                refs=tuple(obj.refs),
                payload_size=obj.payload_size,
                sources=sources,
            ),
        )
        # The object leaves this site: drop it and its inref; local holders
        # keep dangling references until the destination's patch arrives, so
        # patch ourselves immediately is impossible (new id unknown).  The
        # destination patches us like any other source; meanwhile the object
        # id remains reserved in no heap, and our local trace may run -- any
        # local references to it simply dangle until patched, which is safe
        # because reads go through the patched tables only in this baseline.
        site.heap.delete(target)
        site.inrefs.remove(target)
        self.objects_migrated += 1
        self.units_migrated += units
        self.sim.metrics.incr("baseline.migration.objects", 1)
        self.sim.metrics.incr("baseline.migration.units", units)

    def _on_migrate(self, message: Message) -> None:
        payload: MigrateObject = message.payload
        site = self.sim.site(message.dst)
        adopted = site.heap.alloc(refs=payload.refs, payload_size=payload.payload_size)
        new_id = adopted.oid
        # Rebuild reference-listing state for the adopted object's refs.
        for ref in payload.refs:
            if ref.site != message.dst:
                site.outrefs.ensure(ref, clean=True)
                # The true owner will learn of us via our insert.  Use the
                # normal insert path so source lists stay exact.
                site.send(ref.site, _migration_insert(ref, message.dst))
        # Patch every holder of the old id (including ourselves).
        self._apply_patch(message.dst, payload.old_id, new_id)
        for source, distance in payload.sources:
            if source == message.dst:
                continue
            site.inrefs.ensure(new_id, source=source, distance=distance)
            site.send(source, PatchRefs(old_id=payload.old_id, new_id=new_id))

    def _on_patch(self, message: Message) -> None:
        payload: PatchRefs = message.payload
        self._apply_patch(message.dst, payload.old_id, payload.new_id)

    def _apply_patch(self, site_id: SiteId, old_id: ObjectId, new_id: ObjectId) -> None:
        site = self.sim.site(site_id)
        for obj in site.heap.objects():
            while obj.holds_ref(old_id):
                obj.remove_ref(old_id)
                obj.add_ref(new_id)
        # Table surgery: the old outref entry (if any) dies; a new one is
        # created unless the object is now local.
        if old_id.site != site_id:
            site.outrefs.remove(old_id)
        if new_id.site != site_id:
            site.outrefs.ensure(new_id, clean=True)


def _migration_insert(ref: ObjectId, holder: SiteId):
    """An insert message equivalent for migration-created outrefs."""
    from ..gc.insert import InsertRequest

    return InsertRequest(target=ref, pin_holder=None)
