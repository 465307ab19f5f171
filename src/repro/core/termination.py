"""Decentralized trial-deletion collector with termination detection.

The second first-class cycle-collection backend (``GcConfig.collector =
"termination"``), built as a differential-testing rival for the paper's
back tracer (ROADMAP: "Second collector backend for differential
testing").  It follows the Plyukhin-Agha school of actor GC: no global
coordinator, reference listing as the ground truth, and exact
credit-recovery termination detection (Mattern's scheme, :func:`split_credit`
and :class:`CreditPool` below) to decide when a distributed phase has
drained.  It is also the paper's section 7 "subgraph tracing" (trial
deletion [LJ93, JL92]) in this tree.  Every piece of state lives at a site
and every transition is a message, so the backend runs under the parallel
engine and the fault-injection plans like any other protocol in the tree.

One *trial*, initiated by the owner of a suspected inref (distance past
the back threshold, the same section 4.3 trigger timing the back tracer
uses), runs three phases:

1. **mark** -- walk the forward closure of the suspect.  Each member site
   records its local members, which *remote sites* sent it mark arrivals
   per member, and the remote targets its members reference; cross-site
   edges carry exact credit shares and every site acks its kept credit to
   the initiator.  Credit fully recovered == the closure is delineated.
2. **rescue** -- each member site seeds from external support: local
   persistent/variable roots, local non-member holders, inref sources
   outside the recorded mark sources, plus in-flight insurance (its own
   pinned or variable-held outrefs to remote targets of the trial --
   closing the reference-listing multiplicity gap where one site holds
   both member and non-member references to the same target).  Seeds'
   closures are rescued across sites with credit-tracked
   :class:`TrialRescue` fan-out restricted to member sites.
3. **collect** -- the initiator broadcasts; each member flags its
   never-rescued members' inrefs ``garbage`` so death flows through the
   *shared* local-trace sweep path, exactly as a Garbage back-trace
   verdict does.  No direct sweeping: both backends reclaim through one
   code path, which is what makes the differential oracle sharp.

Safety under concurrency and faults:

- every member snapshots ``(heap.mutation_epoch, inrefs.structure_epoch)``
  when it joins and re-validates at every later trial message; any drift
  (or a barrier arrival touching a member -- the site fires
  :meth:`Collector.on_reference_arrival` at every transfer-barrier call
  site) marks the trial *dirty*, which aborts it at the initiator or
  suppresses the member's collect.  Distance-only churn does not dirty --
  distances of a garbage cycle grow every round by design;
- all six payloads ride the site's sequenced-mutation dedup (credit is not
  idempotent: a replayed ack would double-recover it), declared via
  :meth:`Collector.sequenced_payload_types`;
- a lost message starves the credit pool; the initiator's trial timer
  (``GcConfig.backtrace_timeout``) then aborts the trial --
  collecting nothing is always safe, and the still-suspected inref
  re-triggers after an exponential back-off.  Crashes wipe site state via
  :meth:`Collector.on_recover`; a member that lost its state answers any
  rescue-phase message with ``dirty`` and its full credit, aborting cleanly.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from typing import (
    TYPE_CHECKING,
    Callable,
    Dict,
    Iterator,
    List,
    Mapping,
    Optional,
    Set,
    Tuple,
)

from ..ids import ObjectId, SiteId
from ..metrics import names
from ..net.message import Message, Payload
from .collector import Collector

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..site.site import Site

#: A trial is globally identified by (initiator site, per-site serial).
TrialKey = Tuple[SiteId, int]


# -- credit-recovery termination detection -----------------------------------------
#
# Plain "outstanding += spawned - 1" ack counting is racy: an ack for a
# *spawned* batch can overtake (on a different site pair) the ack that
# reports its spawning, driving the counter to zero while work is still in
# flight.  Mattern's credit scheme (a cousin of Dijkstra-Scholten) fixes it:
# the coordinator hands out a total credit of 1; every batch carries an exact
# fractional share; a site that spawns k child batches gives each a share of
# its credit and returns the remainder with its ack.  The phase is complete
# exactly when the coordinator has recovered credit 1.  Credits are
# :class:`fractions.Fraction` values, so the arithmetic is exact at any depth
# and fan-out.  The global-trace and group-trace baselines use the same
# helpers.

FULL_CREDIT = Fraction(1)


def split_credit(credit: Fraction, spawned: int) -> Tuple[List[Fraction], Fraction]:
    """Divide ``credit`` among ``spawned`` children; return (shares, kept).

    The processing site keeps ``kept`` to return with its ack; the children
    each carry one share.  shares + kept always sums to ``credit`` exactly.
    """
    if spawned <= 0:
        return [], credit
    share = credit / (spawned + 1)
    shares = [share] * spawned
    kept = credit - share * spawned
    return shares, kept


class CreditPool:
    """Coordinator-side accumulator for one phase."""

    def __init__(self) -> None:
        self._returned = Fraction(0)

    def hand_out(self, n: int) -> List[Fraction]:
        """Initial distribution of the full credit over n seed messages."""
        if n <= 0:
            self._returned = FULL_CREDIT
            return []
        share = FULL_CREDIT / n
        return [share] * n

    def give_back(self, credit: Fraction) -> None:
        self._returned += credit

    @property
    def complete(self) -> bool:
        return self._returned == FULL_CREDIT

    def reset(self) -> None:
        self._returned = Fraction(0)


# -- payloads ----------------------------------------------------------------------


@dataclass(frozen=True)
class TrialMark(Payload):
    """Mark phase: walk these local objects (reached via internal edges)."""

    trial: TrialKey
    targets: Tuple[ObjectId, ...]
    credit: Fraction = Fraction(0)
    seq: int = -1

    def with_seq(self, seq: int) -> "TrialMark":
        return TrialMark(self.trial, self.targets, self.credit, seq)

    def size_units(self) -> int:
        return max(1, len(self.targets))


@dataclass(frozen=True)
class TrialRescueStart(Payload):
    """Rescue phase opener: compute external seeds and rescue their closures."""

    trial: TrialKey
    member_sites: Tuple[SiteId, ...]
    credit: Fraction = Fraction(0)
    seq: int = -1

    def with_seq(self, seq: int) -> "TrialRescueStart":
        return TrialRescueStart(self.trial, self.member_sites, self.credit, seq)


@dataclass(frozen=True)
class TrialRescue(Payload):
    """Rescue these members (reachable from an external survivor)."""

    trial: TrialKey
    targets: Tuple[ObjectId, ...]
    member_sites: Tuple[SiteId, ...]
    credit: Fraction = Fraction(0)
    seq: int = -1

    def with_seq(self, seq: int) -> "TrialRescue":
        return TrialRescue(
            self.trial, self.targets, self.member_sites, self.credit, seq
        )

    def size_units(self) -> int:
        return max(1, len(self.targets))


@dataclass(frozen=True)
class TrialAck(Payload):
    """Credit return to the initiator, with join/dirty observations."""

    trial: TrialKey
    phase: str
    credit: Fraction
    joined: bool = False
    dirty: bool = False
    seq: int = -1

    def with_seq(self, seq: int) -> "TrialAck":
        return TrialAck(
            self.trial, self.phase, self.credit, self.joined, self.dirty, seq
        )


@dataclass(frozen=True)
class TrialCollect(Payload):
    """Flag never-rescued members garbage (the shared sweep path kills them)."""

    trial: TrialKey
    seq: int = -1

    def with_seq(self, seq: int) -> "TrialCollect":
        return TrialCollect(self.trial, seq)


@dataclass(frozen=True)
class TrialAbort(Payload):
    """Drop all member state for this trial; nothing is collected."""

    trial: TrialKey
    seq: int = -1

    def with_seq(self, seq: int) -> "TrialAbort":
        return TrialAbort(self.trial, seq)


TRIAL_PAYLOADS = (
    TrialMark,
    TrialRescueStart,
    TrialRescue,
    TrialAck,
    TrialCollect,
    TrialAbort,
)


# -- per-site state ----------------------------------------------------------------


@dataclass
class _InitiatorTrial:
    suspect: ObjectId
    phase: str = "mark"
    pool: CreditPool = field(default_factory=CreditPool)
    member_sites: Set[SiteId] = field(default_factory=set)
    dirty: bool = False
    timer: Optional[object] = None


@dataclass
class _MemberTrial:
    heap_epoch: int
    inref_epoch: int
    started_at: float
    members: Set[ObjectId] = field(default_factory=set)
    #: member -> remote sites whose mark arrivals named it (internal sources).
    mark_sources: Dict[ObjectId, Set[SiteId]] = field(default_factory=dict)
    #: remote objects our members reference (this site's mark fan-out set).
    remote_targets: Set[ObjectId] = field(default_factory=set)
    rescued: Set[ObjectId] = field(default_factory=set)
    member_sites: Set[SiteId] = field(default_factory=set)
    dirty: bool = False


class TerminationCollector(Collector):
    """Per-site strategy: decentralized trial deletion, credit-terminated."""

    name = "termination"

    def __init__(self, site: "Site"):
        super().__init__(site)
        self._serial = 0
        self._initiated: Dict[TrialKey, _InitiatorTrial] = {}
        self._active: Optional[TrialKey] = None
        self._member: Dict[TrialKey, _MemberTrial] = {}
        #: suspect -> (earliest re-initiation time, current back-off delay).
        self._not_before: Dict[ObjectId, Tuple[float, float]] = {}
        self.trials_started = 0
        self.trials_garbage = 0
        self.trials_live = 0
        self.trials_aborted = 0

    # -- strategy wiring ----------------------------------------------------------

    def handlers(self) -> Mapping[type, Callable[[Message], None]]:
        return {
            TrialMark: self._on_mark,
            TrialRescueStart: self._on_rescue_start,
            TrialRescue: self._on_rescue,
            TrialAck: self._on_ack,
            TrialCollect: self._on_collect,
            TrialAbort: self._on_abort,
        }

    def sequenced_payload_types(self) -> Tuple[type, ...]:
        return TRIAL_PAYLOADS

    def on_reference_arrival(self, target: ObjectId) -> None:
        for state in self._member.values():
            if target in state.members:
                state.dirty = True

    def on_outref_cleaned(self, target: ObjectId) -> None:
        # The clean rule firing on our suspected outref means the reference
        # moved; any trial whose mark fan-out included it may be deciding on
        # stale support.
        for state in self._member.values():
            if target in state.remote_targets:
                state.dirty = True

    def on_recover(self) -> None:
        for state in self._initiated.values():
            if state.timer is not None:
                state.timer.cancel()
        self._initiated.clear()
        self._member.clear()
        self._active = None
        self._not_before.clear()

    def predict_quiet(self) -> bool:
        if self._initiated or self._member:
            return False
        # Back-off deliberately ignored: a backed-off suspect still triggers
        # on a *future* tick, so the tick chain is not provably quiet.
        return next(self._suspects(), None) is None

    def stats(self) -> Dict[str, int]:
        return {
            "trials_started": self.trials_started,
            "trials_garbage": self.trials_garbage,
            "trials_live": self.trials_live,
            "trials_aborted": self.trials_aborted,
            "active_member_trials": len(self._member),
        }

    # -- initiation (section 4.3 trigger timing, owner side) -----------------------

    def check_triggers(self) -> List[ObjectId]:
        # Trials start from suspected *inrefs*; the outref list is not used.
        self._expire_member_state()
        if self._active is not None:
            return []
        now = self.site.scheduler.now
        for suspect in sorted(self._suspects()):
            held = self._not_before.get(suspect)
            if held is not None and now < held[0]:
                continue
            self._start_trial(suspect)
            return [suspect]
        return []

    def _suspects(self) -> Iterator[ObjectId]:
        """The trigger, owner side: each resident object whose unflagged
        inref's distance exceeds its back threshold, in table order."""
        site = self.site
        return (
            entry.target
            for entry in site.inrefs.entries()
            if not entry.garbage
            and entry.distance > entry.back_threshold
            and site.heap.contains(entry.target)
        )

    def _start_trial(self, suspect: ObjectId) -> None:
        site = self.site
        self._serial += 1
        trial: TrialKey = (site.site_id, self._serial)
        state = _InitiatorTrial(suspect=suspect)
        state.pool.reset()
        state.timer = site.scheduler.schedule(
            site.config.backtrace_timeout,
            lambda: self._on_timeout(trial),
            label=f"trial-timeout:{site.site_id}",
            site=site.site_id,
        )
        self._initiated[trial] = state
        self._active = trial
        self.trials_started += 1
        site.metrics.incr(names.TERMINATION_TRIALS_STARTED)
        (seed_credit,) = state.pool.hand_out(1)
        site.send(
            site.site_id,
            TrialMark(trial=trial, targets=(suspect,), credit=seed_credit),
        )

    # -- mark phase ----------------------------------------------------------------

    def _member_state(self, trial: TrialKey) -> _MemberTrial:
        state = self._member.get(trial)
        if state is None:
            site = self.site
            state = _MemberTrial(
                heap_epoch=site.heap.mutation_epoch,
                inref_epoch=site.inrefs.structure_epoch,
                started_at=site.scheduler.now,
            )
            self._member[trial] = state
        return state

    def _validate(self, state: _MemberTrial) -> None:
        site = self.site
        if (
            site.heap.mutation_epoch != state.heap_epoch
            or site.inrefs.structure_epoch != state.inref_epoch
        ):
            state.dirty = True

    def _expire_member_state(self) -> None:
        """Drop member state of trials long past any live timeout.

        An abort or collect that was lost to the network would leak the
        state forever; expiry is lazy (no timers -- quiescence detection
        must not see phantom events).  Dropping is safe: a later
        rescue-phase message finds no state and answers dirty.
        """
        horizon = 4.0 * self.site.config.backtrace_timeout
        now = self.site.scheduler.now
        stale = [
            trial
            for trial, state in self._member.items()
            if now - state.started_at > horizon and trial not in self._initiated
        ]
        for trial in stale:
            del self._member[trial]

    def _on_mark(self, message: Message) -> None:
        payload: TrialMark = message.payload
        site = self.site
        created = payload.trial not in self._member
        state = self._member_state(payload.trial)
        self._validate(state)
        stack: List[ObjectId] = []
        for target in payload.targets:
            if not site.heap.contains(target):
                continue
            if message.src != site.site_id:
                state.mark_sources.setdefault(target, set()).add(message.src)
            if target not in state.members:
                state.members.add(target)
                stack.append(target)
        remote: Dict[SiteId, Set[ObjectId]] = {}
        while stack:
            oid = stack.pop()
            for ref in site.heap.get(oid).iter_refs():
                if ref.site == site.site_id:
                    if site.heap.contains(ref) and ref not in state.members:
                        state.members.add(ref)
                        stack.append(ref)
                else:
                    state.remote_targets.add(ref)
                    remote.setdefault(ref.site, set()).add(ref)
        if created and not state.members:
            # Every arrival dangled (already swept here): nothing joined.
            del self._member[payload.trial]
        targets = sorted(remote)
        shares, kept = split_credit(payload.credit, len(targets))
        for target_site, share in zip(targets, shares):
            site.send(
                target_site,
                TrialMark(
                    trial=payload.trial,
                    targets=tuple(sorted(remote[target_site])),
                    credit=share,
                ),
            )
        site.send(
            payload.trial[0],
            TrialAck(
                trial=payload.trial,
                phase="mark",
                credit=kept,
                joined=payload.trial in self._member,
                dirty=payload.trial in self._member and state.dirty,
            ),
        )

    # -- phase transitions (initiator side) -----------------------------------------

    def _on_ack(self, message: Message) -> None:
        payload: TrialAck = message.payload
        state = self._initiated.get(payload.trial)
        if state is None or payload.phase != state.phase:
            return  # late credit from an aborted or already-advanced trial
        state.dirty = state.dirty or payload.dirty
        if payload.joined:
            state.member_sites.add(message.src)
        state.pool.give_back(payload.credit)
        if not state.pool.complete:
            return
        if state.phase == "mark":
            if state.dirty or not state.member_sites:
                self._abort_trial(payload.trial, state)
                return
            state.phase = "rescue"
            state.pool.reset()
            members = sorted(state.member_sites)
            shares = state.pool.hand_out(len(members))
            for member_site, share in zip(members, shares):
                self.site.send(
                    member_site,
                    TrialRescueStart(
                        trial=payload.trial,
                        member_sites=tuple(members),
                        credit=share,
                    ),
                )
        elif state.phase == "rescue":
            if state.dirty:
                self._abort_trial(payload.trial, state)
                return
            self._finish_trial(payload.trial, state)

    def _finish_trial(self, trial: TrialKey, state: _InitiatorTrial) -> None:
        site = self.site
        if state.timer is not None:
            state.timer.cancel()
        for member_site in sorted(state.member_sites):
            site.send(member_site, TrialCollect(trial=trial))
        # Our own member state holds the suspect's fate: rescue acks only
        # complete once every rescue walk ran, so the rescued set is final.
        own = self._member.get(trial)
        if own is not None and state.suspect in own.members and (
            state.suspect not in own.rescued
        ):
            self.trials_garbage += 1
            site.metrics.incr(names.TERMINATION_TRIALS_GARBAGE)
            self._not_before.pop(state.suspect, None)
        else:
            self.trials_live += 1
            site.metrics.incr(names.TERMINATION_TRIALS_LIVE)
            self._push_backoff(state.suspect)
        del self._initiated[trial]
        self._active = None

    def _abort_trial(self, trial: TrialKey, state: _InitiatorTrial) -> None:
        site = self.site
        if state.timer is not None:
            state.timer.cancel()
        self.trials_aborted += 1
        site.metrics.incr(names.TERMINATION_TRIALS_ABORTED)
        for member_site in sorted(state.member_sites):
            if member_site != site.site_id:
                site.send(member_site, TrialAbort(trial=trial))
        self._member.pop(trial, None)
        self._push_backoff(state.suspect)
        del self._initiated[trial]
        self._active = None

    def _on_timeout(self, trial: TrialKey) -> None:
        state = self._initiated.get(trial)
        if state is None:
            return
        state.timer = None
        self.site.metrics.incr(names.TERMINATION_TRIALS_TIMEOUT)
        self._abort_trial(trial, state)

    def _push_backoff(self, suspect: ObjectId) -> None:
        base = self.site.config.backtrace_timeout
        held = self._not_before.get(suspect)
        delay = base if held is None else min(held[1] * 2.0, 8.0 * base)
        self._not_before[suspect] = (self.site.scheduler.now + delay, delay)

    # -- rescue phase ---------------------------------------------------------------

    def _external_support(
        self, state: _MemberTrial
    ) -> Tuple[List[ObjectId], Dict[SiteId, Set[ObjectId]]]:
        """External seeds: local members to rescue, remote members to notify.

        One heap pass finds every trial-relevant target held by a local
        *non-member* object.  A local member seeds if it is a root, has such
        a holder, or lists an inref source site that never sent us a mark
        for it.  A *remote* target seeds (at its owner) if a non-member
        holds it here, a mutator variable holds it here, or our outref for
        it is pinned (a reference to it is in flight from here) -- this is
        the sender-side check that covers support invisible to the owner
        because reference listing records sites, not reference counts.
        """
        site = self.site
        heap = site.heap
        externally_held: Set[ObjectId] = set()
        for oid, refs in heap.resident_slots():
            if oid in state.members:
                continue
            for ref in refs:
                if ref in state.members or ref in state.remote_targets:
                    externally_held.add(ref)
        persistent = heap.persistent_roots
        variables = heap.variable_roots
        seeds: List[ObjectId] = []
        for oid in sorted(state.members):
            entry = site.inrefs.get(oid)
            external_source = entry is not None and any(
                source not in state.mark_sources.get(oid, ())
                for source in entry.sources
            )
            if (
                oid in persistent
                or oid in variables
                or oid in externally_held
                or external_source
            ):
                seeds.append(oid)
        remote_seeds: Dict[SiteId, Set[ObjectId]] = {}
        for target in sorted(state.remote_targets):
            out_entry = site.outrefs.get(target)
            if (
                target in externally_held
                or target in site.variable_outrefs
                or (out_entry is not None and out_entry.pin_count > 0)
            ):
                remote_seeds.setdefault(target.site, set()).add(target)
        return seeds, remote_seeds

    def _rescue_walk(
        self,
        trial: TrialKey,
        state: _MemberTrial,
        seeds: List[ObjectId],
        extra_remote: Dict[SiteId, Set[ObjectId]],
        credit: Fraction,
    ) -> Fraction:
        site = self.site
        remote: Dict[SiteId, Set[ObjectId]] = {
            target_site: set(targets)
            for target_site, targets in extra_remote.items()
        }
        stack = [
            oid for oid in seeds if oid in state.members and oid not in state.rescued
        ]
        while stack:
            oid = stack.pop()
            if oid in state.rescued:
                continue
            obj = site.heap.maybe_get(oid)
            if obj is None:
                # Swept by an overlapping trial since our mark phase: this
                # trial's view of the member set is stale.
                state.dirty = True
                continue
            state.rescued.add(oid)
            for ref in obj.iter_refs():
                if ref.site == site.site_id:
                    if ref in state.members and ref not in state.rescued:
                        stack.append(ref)
                else:
                    remote.setdefault(ref.site, set()).add(ref)
        member_sites = sorted(state.member_sites)
        targets = [
            target_site
            for target_site in sorted(remote)
            if target_site in state.member_sites and target_site != site.site_id
        ]
        shares, kept = split_credit(credit, len(targets))
        for target_site, share in zip(targets, shares):
            site.send(
                target_site,
                TrialRescue(
                    trial=trial,
                    targets=tuple(sorted(remote[target_site])),
                    member_sites=tuple(member_sites),
                    credit=share,
                ),
            )
        return kept

    def _on_rescue_start(self, message: Message) -> None:
        payload: TrialRescueStart = message.payload
        site = self.site
        state = self._member.get(payload.trial)
        if state is None:
            # Our state expired or was wiped by a crash: abort the trial.
            site.send(
                message.src,
                TrialAck(
                    trial=payload.trial,
                    phase="rescue",
                    credit=payload.credit,
                    dirty=True,
                ),
            )
            return
        self._validate(state)
        state.member_sites.update(payload.member_sites)
        seeds, remote_seeds = self._external_support(state)
        kept = self._rescue_walk(
            payload.trial, state, seeds, remote_seeds, payload.credit
        )
        site.send(
            payload.trial[0],
            TrialAck(
                trial=payload.trial,
                phase="rescue",
                credit=kept,
                joined=True,
                dirty=state.dirty,
            ),
        )

    def _on_rescue(self, message: Message) -> None:
        payload: TrialRescue = message.payload
        site = self.site
        state = self._member.get(payload.trial)
        if state is None:
            site.send(
                payload.trial[0],
                TrialAck(
                    trial=payload.trial,
                    phase="rescue",
                    credit=payload.credit,
                    dirty=True,
                ),
            )
            return
        self._validate(state)
        state.member_sites.update(payload.member_sites)
        fresh = [
            target
            for target in payload.targets
            if target in state.members and target not in state.rescued
        ]
        kept = self._rescue_walk(payload.trial, state, fresh, {}, payload.credit)
        site.send(
            payload.trial[0],
            TrialAck(
                trial=payload.trial,
                phase="rescue",
                credit=kept,
                joined=True,
                dirty=state.dirty,
            ),
        )

    # -- collect / abort (member side) ----------------------------------------------

    def _on_collect(self, message: Message) -> None:
        payload: TrialCollect = message.payload
        site = self.site
        state = self._member.pop(payload.trial, None)
        if state is None:
            return
        self._validate(state)
        if state.dirty:
            # Our support view drifted after the last ack the initiator saw;
            # collecting on it would be unsafe.  Skipping is always safe.
            site.metrics.incr(names.TERMINATION_COLLECTS_SUPPRESSED)
            return
        flagged = 0
        for oid in sorted(state.members - state.rescued):
            entry = site.inrefs.get(oid)
            if entry is not None and not entry.garbage:
                entry.garbage = True
                flagged += 1
        if flagged:
            site.metrics.incr(names.TERMINATION_INREFS_FLAGGED, flagged)

    def _on_abort(self, message: Message) -> None:
        self._member.pop(message.payload.trial, None)

