"""Trial deletion / cyclic reference counting over subgraphs (Lins-Jones
[LJ93, JL92] family -- "Subgraph Tracing" in the paper's section 7).

From a suspect, the collector delineates the *subgraph* of objects reachable
forward from it (crossing sites), then runs the classic three-phase trial
deletion over exactly that subgraph:

1. **red phase** -- walk the subgraph from the suspect, counting, for every
   member, how many of its incoming references come from *inside* the
   subgraph (equivalently: trial-decrement its total reference count once
   per internal edge);
2. **green phase** -- every member whose external count is positive (some
   reference from outside the subgraph, a persistent root, or a mutator
   variable still reaches it) is externally alive: re-walk from all such
   members, rescuing their closures;
3. **collect phase** -- members never rescued form garbage (the suspect's
   cycle); delete them.

Cross-site edges make each phase a message exchange (Red/Green batches with
credit-recovery termination per phase -- see :mod:`.termination` -- much as
[JL92] synchronizes its parallel traces).  The
paper's criticisms are directly measurable:

- **no locality**: "a garbage cycle might point to live objects, and the
  associated subgraph would include all such objects" -- the red phase
  spreads into live structure and its sites (compare ``subgraph_sizes``
  against the actual cycle);
- two full distributed passes over the subgraph per attempt, plus a third
  for collection;
- a crashed subgraph member stalls the attempt.

The suspect-selection here reuses the distance heuristic, as the paper does
for its own scheme, to keep the comparison about the *checking* technique.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from typing import Dict, List, Optional, Set, Tuple

from ..core.collector import CollectorSpec, NullCollector, register_collector
from ..ids import ObjectId, SiteId
from ..net.message import Message, Payload
from ..sim.simulation import Simulation
from .termination import FULL_CREDIT, CreditPool, split_credit


@dataclass(frozen=True)
class RedBatch(Payload):
    """Phase 1: trial-walk these objects (arrived via internal edges)."""

    trial_id: int
    # (target object, number of internal edges arriving at it in this batch)
    arrivals: Tuple[Tuple[ObjectId, int], ...]
    credit: Fraction = Fraction(0)

    def size_units(self) -> int:
        return max(1, len(self.arrivals))


@dataclass(frozen=True)
class GreenBatch(Payload):
    """Phase 2: rescue these objects (reachable from an external survivor)."""

    trial_id: int
    targets: Tuple[ObjectId, ...]
    credit: Fraction = Fraction(0)

    def size_units(self) -> int:
        return max(1, len(self.targets))


@dataclass(frozen=True)
class PhaseAck(Payload):
    trial_id: int
    phase: str
    credit: Fraction


@dataclass(frozen=True)
class StartGreen(Payload):
    trial_id: int
    credit: Fraction = Fraction(0)


@dataclass(frozen=True)
class CollectCommand(Payload):
    trial_id: int


@dataclass
class _TrialState:
    trial_id: int
    initiator: SiteId
    suspect: ObjectId
    phase: str = "red"
    credits: CreditPool = field(default_factory=CreditPool)
    # site -> member object -> internal-edge count accumulated so far
    members: Dict[SiteId, Dict[ObjectId, int]] = field(default_factory=dict)
    green: Dict[SiteId, Set[ObjectId]] = field(default_factory=dict)


class TrialDeletionCollector:
    """Distributed trial deletion seeded by the distance heuristic."""

    def __init__(self, sim: Simulation, suspicion_threshold: Optional[int] = None):
        self.sim = sim
        gc = sim.config.gc
        self.suspicion_threshold = (
            suspicion_threshold
            if suspicion_threshold is not None
            else gc.initial_back_threshold
        )
        self._next_trial = 0
        self._active: Optional[_TrialState] = None
        self._last: Optional[_TrialState] = None
        self.trials_completed = 0
        self.subgraph_sizes: List[int] = []
        self.subgraph_site_counts: List[int] = []
        for site in sim.sites.values():
            site.register_handler(RedBatch, self._on_red)
            site.register_handler(GreenBatch, self._on_green)
            site.register_handler(PhaseAck, self._on_ack)
            site.register_handler(StartGreen, self._on_start_green)
            site.register_handler(CollectCommand, self._on_collect)

    @property
    def trial_in_progress(self) -> bool:
        return self._active is not None

    # -- initiation ---------------------------------------------------------------

    def maybe_initiate(self, site_id: SiteId) -> bool:
        if self._active is not None:
            return False
        site = self.sim.site(site_id)
        suspects = [
            entry.target
            for entry in site.inrefs.entries()
            if not entry.garbage
            and entry.distance > self.suspicion_threshold
            and site.heap.contains(entry.target)
        ]
        if not suspects:
            return False
        suspect = sorted(suspects)[0]
        self._next_trial += 1
        state = _TrialState(
            trial_id=self._next_trial, initiator=site_id, suspect=suspect
        )
        self._active = state
        state.phase = "red"
        state.credits.reset()
        site.send(
            site_id,
            RedBatch(
                trial_id=state.trial_id,
                arrivals=((suspect, 0),),
                credit=FULL_CREDIT,
            ),
        )
        return True

    def run_round(self, settle_time: float = 50.0) -> None:
        self.sim.run_gc_round(settle_time)
        for site_id in sorted(self.sim.sites):
            if not self.sim.site(site_id).crashed:
                if self.maybe_initiate(site_id):
                    break
        self.sim.settle(settle_time)

    # -- red phase -------------------------------------------------------------------

    def _on_red(self, message: Message) -> None:
        payload: RedBatch = message.payload
        state = self._active
        if state is None or payload.trial_id != state.trial_id or state.phase != "red":
            return
        site = self.sim.site(message.dst)
        members = state.members.setdefault(message.dst, {})
        remote: Dict[SiteId, Dict[ObjectId, int]] = {}
        stack: List[ObjectId] = []
        for target, internal_edges in payload.arrivals:
            if not site.heap.contains(target):
                continue
            first_visit = target not in members
            members[target] = members.get(target, 0) + internal_edges
            if first_visit:
                stack.append(target)
        while stack:
            oid = stack.pop()
            for ref in site.heap.get(oid).iter_refs():
                if ref.site == message.dst:
                    if not site.heap.contains(ref):
                        continue
                    first_visit = ref not in members
                    members[ref] = members.get(ref, 0) + 1
                    if first_visit:
                        stack.append(ref)
                else:
                    bucket = remote.setdefault(ref.site, {})
                    bucket[ref] = bucket.get(ref, 0) + 1
        targets = sorted(remote)
        shares, kept = split_credit(payload.credit, len(targets))
        for target_site, share in zip(targets, shares):
            site.send(
                target_site,
                RedBatch(
                    trial_id=state.trial_id,
                    arrivals=tuple(sorted(remote[target_site].items())),
                    credit=share,
                ),
            )
        site.send(
            state.initiator,
            PhaseAck(trial_id=state.trial_id, phase="red", credit=kept),
        )

    # -- phase transitions --------------------------------------------------------------

    def _on_ack(self, message: Message) -> None:
        payload: PhaseAck = message.payload
        state = self._active
        if state is None or payload.trial_id != state.trial_id:
            return
        if payload.phase != state.phase:
            return
        state.credits.give_back(payload.credit)
        if not state.credits.complete:
            return
        initiator = self.sim.site(state.initiator)
        if state.phase == "red":
            size = sum(len(members) for members in state.members.values())
            self.subgraph_sizes.append(size)
            self.subgraph_site_counts.append(len(state.members))
            state.phase = "green"
            state.credits.reset()
            members = sorted(state.members)
            shares = state.credits.hand_out(len(members))
            for member_site, share in zip(members, shares):
                initiator.send(
                    member_site, StartGreen(trial_id=state.trial_id, credit=share)
                )
        elif state.phase == "green":
            state.phase = "collect"
            for member_site in sorted(state.members):
                initiator.send(member_site, CollectCommand(trial_id=state.trial_id))
            self.trials_completed += 1
            self._last = state
            self._active = None

    # -- green phase ----------------------------------------------------------------------

    def _externally_alive(self, site_id: SiteId, state: _TrialState) -> List[ObjectId]:
        """Members whose reference count exceeds their internal-edge count,
        or that are roots/variables -- something outside the subgraph
        reaches them."""
        site = self.sim.site(site_id)
        members = state.members.get(site_id, {})
        alive: List[ObjectId] = []
        # Total incoming references per member: local holders plus remote
        # holders (one per source site per inref -- the reference-listing
        # approximation of a count, conservative upward).
        local_in: Dict[ObjectId, int] = {oid: 0 for oid in members}
        for obj in site.heap.objects():
            for ref in obj.iter_refs():
                if ref in local_in:
                    local_in[ref] += 1
        for oid, internal in members.items():
            total = local_in[oid]
            entry = site.inrefs.get(oid)
            if entry is not None:
                total += len(entry.sources)
            if (
                total > internal
                or oid in site.heap.persistent_roots
                or oid in site.heap.variable_roots
            ):
                alive.append(oid)
        return alive

    def _on_start_green(self, message: Message) -> None:
        payload: StartGreen = message.payload
        state = self._active
        if state is None or payload.trial_id != state.trial_id or state.phase != "green":
            return
        site = self.sim.site(message.dst)
        seeds = self._externally_alive(message.dst, state)
        kept = self._green_walk(state, message.dst, seeds, message.payload.credit)
        site.send(
            state.initiator,
            PhaseAck(trial_id=state.trial_id, phase="green", credit=kept),
        )

    def _green_walk(
        self, state: _TrialState, site_id: SiteId, seeds, credit: Fraction
    ) -> Fraction:
        site = self.sim.site(site_id)
        members = state.members.get(site_id, {})
        green = state.green.setdefault(site_id, set())
        remote: Dict[SiteId, Set[ObjectId]] = {}
        stack = [oid for oid in seeds if oid in members and oid not in green]
        while stack:
            oid = stack.pop()
            if oid in green:
                continue
            green.add(oid)
            for ref in site.heap.get(oid).iter_refs():
                if ref.site == site_id:
                    if ref in members and ref not in green:
                        stack.append(ref)
                else:
                    remote.setdefault(ref.site, set()).add(ref)
        targets = [t for t in sorted(remote) if t in state.members]
        shares, kept = split_credit(credit, len(targets))
        for target_site, share in zip(targets, shares):
            site.send(
                target_site,
                GreenBatch(
                    trial_id=state.trial_id,
                    targets=tuple(sorted(remote[target_site])),
                    credit=share,
                ),
            )
        return kept

    def _on_green(self, message: Message) -> None:
        payload: GreenBatch = message.payload
        state = self._active
        if state is None or payload.trial_id != state.trial_id or state.phase != "green":
            return
        site = self.sim.site(message.dst)
        members = state.members.get(message.dst, {})
        green = state.green.setdefault(message.dst, set())
        fresh = [t for t in payload.targets if t in members and t not in green]
        kept = self._green_walk(state, message.dst, fresh, payload.credit)
        site.send(
            state.initiator,
            PhaseAck(trial_id=state.trial_id, phase="green", credit=kept),
        )

    # -- collect phase ----------------------------------------------------------------------

    def _on_collect(self, message: Message) -> None:
        payload: CollectCommand = message.payload
        state = self._last
        if state is None or payload.trial_id != state.trial_id:
            return
        site = self.sim.site(message.dst)
        members = state.members.get(message.dst, {})
        green = state.green.get(message.dst, set())
        doomed = [oid for oid in members if oid not in green]
        deleted = site.heap.sweep_ids(doomed)
        for oid in deleted:
            site.inrefs.remove(oid)
        self.sim.metrics.incr("baseline.trial.objects_swept", len(deleted))


def _driver(sim: Simulation) -> TrialDeletionCollector:
    return TrialDeletionCollector(sim)


register_collector(
    CollectorSpec(
        name="baseline.trial", site_factory=NullCollector, driver_factory=_driver
    )
)
