"""Complementary global tracing (Ali85 / Juul-Jul92 family).

A coordinator starts a distributed mark over *all* sites: each site marks the
local closure of its persistent and variable roots and forwards every remote
reference it encounters in a :class:`MarkBatch`.  Termination is detected with
the credit-recovery scheme of :mod:`repro.core.termination`: every mark
message carries an exact fractional credit share, sites return unspent
credit with their acks, and full recovery of credit 1 at the coordinator
means the global mark is complete (simple spawned-minus-one counting is racy
across site pairs).  A final :class:`SweepCommand` makes every site delete
unmarked objects (exact global liveness, so cycles die too).

Drawbacks the paper cites, reproduced measurably here:

- every site must participate ("a global trace requires the cooperation of
  all sites before it can collect any garbage"): one crashed site stalls the
  round forever (:attr:`GlobalTraceCollector.round_in_progress` stays True);
- message cost scales with the total number of inter-site references in the
  system, not with the garbage actually collected.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Dict, List, Set, Tuple

from ..core.termination import CreditPool, split_credit
from ..ids import ObjectId, SiteId
from ..net.message import Message, Payload
from ..sim.simulation import Simulation


@dataclass(frozen=True)
class StartGlobalMark(Payload):
    generation: int
    credit: Fraction = Fraction(0)


@dataclass(frozen=True)
class MarkBatch(Payload):
    generation: int
    refs: Tuple[ObjectId, ...]
    credit: Fraction = Fraction(0)


@dataclass(frozen=True)
class MarkAck(Payload):
    generation: int
    credit: Fraction


@dataclass(frozen=True)
class SweepCommand(Payload):
    generation: int


class GlobalTraceCollector:
    """Coordinator-driven global mark-sweep attached to a simulation."""

    def __init__(self, sim: Simulation, coordinator: SiteId):
        self.sim = sim
        self.coordinator = coordinator
        self.generation = 0
        self._credits = CreditPool()
        self.round_in_progress = False
        self.rounds_completed = 0
        self._marks: Dict[SiteId, Set[ObjectId]] = {}
        for site in sim.sites.values():
            site.register_handler(StartGlobalMark, self._on_start)
            site.register_handler(MarkBatch, self._on_batch)
            site.register_handler(MarkAck, self._on_ack)
            site.register_handler(SweepCommand, self._on_sweep)

    # -- driving ------------------------------------------------------------------

    def start_round(self) -> None:
        """Begin one global mark-sweep round from the coordinator."""
        if self.round_in_progress:
            return
        self.generation += 1
        self.round_in_progress = True
        self._marks = {site_id: set() for site_id in self.sim.sites}
        self._credits.reset()
        coordinator = self.sim.site(self.coordinator)
        shares = self._credits.hand_out(len(self.sim.sites))
        for site_id, share in zip(sorted(self.sim.sites), shares):
            coordinator.send(
                site_id, StartGlobalMark(generation=self.generation, credit=share)
            )

    # -- marking -------------------------------------------------------------------

    def _local_mark(
        self, site_id: SiteId, seeds: List[ObjectId], credit: Fraction
    ) -> Fraction:
        """Mark the local closure of ``seeds``; forward remote refs.

        Splits ``credit`` over the spawned MarkBatch messages and returns
        the unspent remainder (to be acked back to the coordinator).
        """
        site = self.sim.site(site_id)
        marked = self._marks[site_id]
        remote_found: Dict[SiteId, Set[ObjectId]] = {}
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
                else:
                    remote_found.setdefault(ref.site, set()).add(ref)
        targets = sorted(remote_found)
        shares, kept = split_credit(credit, len(targets))
        for target_site, share in zip(targets, shares):
            site.send(
                target_site,
                MarkBatch(
                    generation=self.generation,
                    refs=tuple(sorted(remote_found[target_site])),
                    credit=share,
                ),
            )
        return kept

    def _on_start(self, message: Message) -> None:
        site = self.sim.site(message.dst)
        seeds = sorted(site.heap.persistent_roots | site.heap.variable_roots)
        kept = self._local_mark(message.dst, seeds, message.payload.credit)
        site.send(
            self.coordinator, MarkAck(generation=self.generation, credit=kept)
        )

    def _on_batch(self, message: Message) -> None:
        payload: MarkBatch = message.payload
        if payload.generation != self.generation:
            return
        site = self.sim.site(message.dst)
        # Only mark refs not already marked (avoids re-acking duplicates).
        fresh = [
            ref for ref in payload.refs if ref not in self._marks[message.dst]
        ]
        kept = self._local_mark(message.dst, fresh, payload.credit)
        site.send(
            self.coordinator, MarkAck(generation=self.generation, credit=kept)
        )

    def _on_ack(self, message: Message) -> None:
        payload: MarkAck = message.payload
        if payload.generation != self.generation or not self.round_in_progress:
            return
        self._credits.give_back(payload.credit)
        if self._credits.complete:
            coordinator = self.sim.site(self.coordinator)
            for site_id in sorted(self.sim.sites):
                coordinator.send(site_id, SweepCommand(generation=self.generation))
            self.round_in_progress = False
            self.rounds_completed += 1

    # -- sweeping ------------------------------------------------------------------------

    def _on_sweep(self, message: Message) -> None:
        payload: SweepCommand = message.payload
        if payload.generation != self.generation:
            return
        site = self.sim.site(message.dst)
        marked = self._marks[message.dst]
        swept = site.heap.sweep(marked)
        self.sim.metrics.incr("baseline.global.objects_swept", len(swept))
        for oid in swept:
            site.inrefs.remove(oid)
            # Outrefs held by swept objects are trimmed by the next local
            # trace via the normal update path.
