"""Group tracing (LQP92 / MKI+95 / RJ96 family).

A site with a sufficiently suspected inref initiates a **group**: the set of
sites holding objects reachable *forward* from the suspect (discovered by
following outrefs with :class:`GroupDiscover` messages).  The initiator then
coordinates a mark over exactly those sites: every member marks from its
persistent/variable roots and from inrefs whose source lies *outside* the
group; marking crosses member boundaries with :class:`GroupMark` messages,
and the coordinator detects termination with the credit-recovery scheme of
:mod:`repro.core.termination`, scoped to the group.  Unmarked objects at
member sites are swept.

Drawbacks the paper cites, all measurable here:

- a group can be much larger than the cycle it targets, because a garbage
  cycle may point to long chains of garbage or live objects whose sites all
  get drafted into the group (compare ``group_sizes`` with the cycle size);
- a crashed member stalls the whole group trace;
- concurrent groups initiated from the same cycle can interfere; we
  serialize initiations per collector instance, which mirrors the published
  mitigation of electing one initiator.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Dict, List, Optional, Set, Tuple

from ..core.termination import CreditPool, split_credit
from ..ids import ObjectId, SiteId
from ..net.message import Message, Payload
from ..sim.simulation import Simulation


@dataclass(frozen=True)
class GroupDiscover(Payload):
    """Ask a site which other sites its suspected closure points to."""

    group_id: int
    seeds: Tuple[ObjectId, ...]


@dataclass(frozen=True)
class GroupDiscoverReply(Payload):
    group_id: int
    reaches: Tuple[SiteId, ...]
    new_seeds: Tuple[Tuple[SiteId, ObjectId], ...]


@dataclass(frozen=True)
class GroupMarkStart(Payload):
    group_id: int
    members: Tuple[SiteId, ...]
    credit: Fraction = Fraction(0)


@dataclass(frozen=True)
class GroupMark(Payload):
    group_id: int
    refs: Tuple[ObjectId, ...]
    credit: Fraction = Fraction(0)


@dataclass(frozen=True)
class GroupAck(Payload):
    group_id: int
    credit: Fraction


@dataclass(frozen=True)
class GroupSweep(Payload):
    group_id: int


class GroupTraceCollector:
    """Suspect-seeded group formation and intra-group mark-sweep."""

    def __init__(self, sim: Simulation, suspicion_threshold: Optional[int] = None):
        self.sim = sim
        gc = sim.config.gc
        self.suspicion_threshold = (
            suspicion_threshold
            if suspicion_threshold is not None
            else gc.initial_back_threshold
        )
        self._next_group = 0
        self._active: Optional[_GroupState] = None
        self.group_sizes: List[int] = []
        self.groups_completed = 0
        for site in sim.sites.values():
            site.register_handler(GroupDiscover, self._on_discover)
            site.register_handler(GroupDiscoverReply, self._on_discover_reply)
            site.register_handler(GroupMarkStart, self._on_mark_start)
            site.register_handler(GroupMark, self._on_mark)
            site.register_handler(GroupAck, self._on_ack)
            site.register_handler(GroupSweep, self._on_sweep)

    @property
    def group_in_progress(self) -> bool:
        return self._active is not None

    # -- initiation -----------------------------------------------------------------

    def maybe_initiate(self, site_id: SiteId) -> bool:
        """Start a group from this site's most suspected inref, if any."""
        if self._active is not None:
            return False
        site = self.sim.site(site_id)
        suspects = [
            entry.target
            for entry in site.inrefs.entries()
            if not entry.garbage and entry.distance > self.suspicion_threshold
        ]
        if not suspects:
            return False
        self._next_group += 1
        state = _GroupState(
            group_id=self._next_group,
            initiator=site_id,
            members={site_id},
            pending_discovery=0,
        )
        self._active = state
        seeds = tuple(sorted(suspects))
        state.pending_discovery += 1
        site.send(site_id, GroupDiscover(group_id=state.group_id, seeds=seeds))
        return True

    # -- discovery phase -----------------------------------------------------------------

    def _on_discover(self, message: Message) -> None:
        payload: GroupDiscover = message.payload
        state = self._active
        if state is None or payload.group_id != state.group_id:
            return
        site = self.sim.site(message.dst)
        # Forward closure of the seeds over the local heap.
        closure = site.heap.locally_reachable_from(payload.seeds)
        state.seeds_by_site.setdefault(message.dst, set()).update(
            oid for oid in payload.seeds if site.heap.contains(oid)
        )
        remote: Dict[SiteId, Set[ObjectId]] = {}
        for oid in closure:
            for ref in site.heap.get(oid).iter_refs():
                if ref.site != message.dst:
                    remote.setdefault(ref.site, set()).add(ref)
        new_seeds = tuple(
            (target_site, ref)
            for target_site in sorted(remote)
            for ref in sorted(remote[target_site])
        )
        site.send(
            state.initiator,
            GroupDiscoverReply(
                group_id=state.group_id,
                reaches=tuple(sorted(remote)),
                new_seeds=new_seeds,
            ),
        )

    def _on_discover_reply(self, message: Message) -> None:
        payload: GroupDiscoverReply = message.payload
        state = self._active
        if state is None or payload.group_id != state.group_id:
            return
        state.pending_discovery -= 1
        initiator = self.sim.site(state.initiator)
        fresh: Dict[SiteId, Set[ObjectId]] = {}
        for target_site, ref in payload.new_seeds:
            seen = state.seeds_by_site.setdefault(target_site, set())
            if ref not in seen:
                seen.add(ref)
                fresh.setdefault(target_site, set()).add(ref)
        for target_site in sorted(fresh):
            state.members.add(target_site)
            state.pending_discovery += 1
            initiator.send(
                target_site,
                GroupDiscover(
                    group_id=state.group_id, seeds=tuple(sorted(fresh[target_site]))
                ),
            )
        if state.pending_discovery == 0:
            self._begin_mark(state)

    # -- mark phase ------------------------------------------------------------------------

    def _begin_mark(self, state: "_GroupState") -> None:
        state.marking = True
        state.credits.reset()
        self.group_sizes.append(len(state.members))
        initiator = self.sim.site(state.initiator)
        members = tuple(sorted(state.members))
        shares = state.credits.hand_out(len(members))
        for member, share in zip(members, shares):
            initiator.send(
                member,
                GroupMarkStart(
                    group_id=state.group_id, members=members, credit=share
                ),
            )

    def _local_mark(
        self, state: "_GroupState", site_id: SiteId, seeds, credit: Fraction
    ) -> Fraction:
        site = self.sim.site(site_id)
        marked = state.marks.setdefault(site_id, set())
        remote: Dict[SiteId, Set[ObjectId]] = {}
        stack = [oid for oid in seeds if site.heap.contains(oid)]
        while stack:
            oid = stack.pop()
            if oid in marked:
                continue
            marked.add(oid)
            for ref in site.heap.get(oid).iter_refs():
                if ref.site == site_id:
                    if ref not in marked and site.heap.contains(ref):
                        stack.append(ref)
                elif ref.site in state.members:
                    remote.setdefault(ref.site, set()).add(ref)
                # References leaving the group need no marking: the group
                # sweeps only member sites.
        targets = sorted(remote)
        shares, kept = split_credit(credit, len(targets))
        for target_site, share in zip(targets, shares):
            site.send(
                target_site,
                GroupMark(
                    group_id=state.group_id,
                    refs=tuple(sorted(remote[target_site])),
                    credit=share,
                ),
            )
        return kept

    def _on_mark_start(self, message: Message) -> None:
        payload: GroupMarkStart = message.payload
        state = self._active
        if state is None or payload.group_id != state.group_id:
            return
        site = self.sim.site(message.dst)
        members = set(payload.members)
        seeds = set(site.heap.persistent_roots | site.heap.variable_roots)
        # Inrefs from outside the group are roots for the group trace.
        for target in site.inrefs.targets():
            entry = site.inrefs.get(target)
            if entry is None or entry.garbage:
                continue
            if any(source not in members for source in entry.sources):
                seeds.add(target)
        kept = self._local_mark(state, message.dst, sorted(seeds), message.payload.credit)
        site.send(state.initiator, GroupAck(group_id=state.group_id, credit=kept))

    def _on_mark(self, message: Message) -> None:
        payload: GroupMark = message.payload
        state = self._active
        if state is None or payload.group_id != state.group_id:
            return
        site = self.sim.site(message.dst)
        marked = state.marks.setdefault(message.dst, set())
        fresh = [ref for ref in payload.refs if ref not in marked]
        kept = self._local_mark(state, message.dst, fresh, payload.credit)
        site.send(state.initiator, GroupAck(group_id=state.group_id, credit=kept))

    def _on_ack(self, message: Message) -> None:
        payload: GroupAck = message.payload
        state = self._active
        if state is None or payload.group_id != state.group_id or not state.marking:
            return
        state.credits.give_back(payload.credit)
        if state.credits.complete:
            initiator = self.sim.site(state.initiator)
            for member in sorted(state.members):
                initiator.send(member, GroupSweep(group_id=state.group_id))
            self.groups_completed += 1
            self._active = None
            self._last_state = state

    # -- sweep -----------------------------------------------------------------------------

    def _on_sweep(self, message: Message) -> None:
        payload: GroupSweep = message.payload
        state = getattr(self, "_last_state", None)
        if state is None or payload.group_id != state.group_id:
            return
        site = self.sim.site(message.dst)
        marked = state.marks.get(message.dst, set())
        swept = site.heap.sweep(marked)
        self.sim.metrics.incr("baseline.group.objects_swept", len(swept))
        for oid in swept:
            site.inrefs.remove(oid)

    # -- convenience ------------------------------------------------------------------------

    def run_round(self, settle_time: float = 50.0) -> None:
        """Local traces everywhere, then at most one group trace."""
        self.sim.run_gc_round(settle_time)
        for site_id in sorted(self.sim.sites):
            if self.sim.site(site_id).crashed:
                continue
            if self.maybe_initiate(site_id):
                break
        self.sim.settle(settle_time)


@dataclass
class _GroupState:
    group_id: int
    initiator: SiteId
    members: Set[SiteId]
    pending_discovery: int = 0
    marking: bool = False
    credits: CreditPool = None
    marks: Dict[SiteId, Set[ObjectId]] = None
    seeds_by_site: Dict[SiteId, Set[ObjectId]] = None

    def __post_init__(self):
        if self.credits is None:
            self.credits = CreditPool()
        if self.marks is None:
            self.marks = {}
        if self.seeds_by_site is None:
            self.seeds_by_site = {}
