"""Hughes' timestamp-propagation collector [Hug85].

Each site periodically runs a *stamp trace*: persistent and variable roots
carry the current time; inrefs carry the latest timestamp received for them;
the trace propagates, to every outref, the largest stamp of any root/inref
that reaches it, and sends the new stamps to the target sites, which fold
them into their inrefs (max-merge).  Stamps of live objects keep rising
(roots always have "now"); stamps of garbage freeze.

A coordinator computes the **global threshold**: the minimum over all sites
of the site's guarantee ("every stamp I will ever send from pre-threshold
state has been sent"), which here is the time of the site's last completed
stamp trace.  Every inref stamped below the threshold is garbage and gets
flagged for the local collector.

The drawback the paper cites -- "a single site can hold down the global
threshold, prohibiting garbage collection in the entire system" -- falls out
directly: a crashed site's last-trace time freezes, the min stops rising, and
nothing newer than it is ever collected anywhere.

Approximation note: real Hughes computes the threshold with a distributed
termination-detection algorithm that accounts for stamps still in flight.
We approximate in two parts: (1) each round runs ``propagation_passes``
synchronized stamp-trace sweeps, enough to re-propagate root stamps across
every live inter-site chain (passes must cover the chain's site-order
reversals); (2) the coordinator announces, as the threshold, the minimum
last-trace time from the *previous* poll -- strictly older than any root
stamp emitted this round, so a fully re-propagated live inref always sits
above it.  Benchmarks verify safety with the oracle.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Tuple

from ..ids import ObjectId, SiteId
from ..net.message import Message, Payload
from ..sim.simulation import Simulation


@dataclass(frozen=True)
class StampUpdate(Payload):
    stamps: Tuple[Tuple[ObjectId, float], ...]

    def size_units(self) -> int:
        return max(1, len(self.stamps))


@dataclass(frozen=True)
class GcTimeRequest(Payload):
    generation: int


@dataclass(frozen=True)
class GcTimeReply(Payload):
    generation: int
    last_trace_time: float


@dataclass(frozen=True)
class ThresholdAnnounce(Payload):
    threshold: float


class HughesCollector:
    """Timestamp propagation + centrally computed global threshold."""

    def __init__(self, sim: Simulation, coordinator: SiteId):
        self.sim = sim
        self.coordinator = coordinator
        self.inref_stamps: Dict[SiteId, Dict[ObjectId, float]] = {
            site_id: {} for site_id in sim.sites
        }
        self.last_trace_time: Dict[SiteId, float] = {
            site_id: 0.0 for site_id in sim.sites
        }
        self.threshold = 0.0
        self._generation = 0
        self._replies: Dict[SiteId, float] = {}
        self._previous_poll: Dict[SiteId, float] = {}
        for site in sim.sites.values():
            site.register_handler(StampUpdate, self._on_stamp_update)
            site.register_handler(GcTimeRequest, self._on_time_request)
            site.register_handler(GcTimeReply, self._on_time_reply)
            site.register_handler(ThresholdAnnounce, self._on_threshold)

    # -- per-site stamp trace ----------------------------------------------------------

    def run_stamp_trace(self, site_id: SiteId) -> None:
        """One Hughes trace at one site: propagate stamps roots/inrefs -> outrefs."""
        site = self.sim.site(site_id)
        if site.crashed:
            return
        now = self.sim.now
        stamps = self.inref_stamps[site_id]
        # Sources: roots at "now", inrefs at their recorded stamps (new
        # inrefs conservatively get "now" -- they were just created, hence
        # reachable by a live mutator).
        sources: List[Tuple[ObjectId, float]] = [
            (oid, now)
            for oid in sorted(site.heap.persistent_roots | site.heap.variable_roots)
        ]
        for target in site.inrefs.targets():
            entry = site.inrefs.get(target)
            if entry is None or entry.garbage:
                continue
            sources.append((target, stamps.get(target, now)))
        # Propagate the *maximum* reaching stamp: trace in decreasing stamp
        # order with shared marks; the first visit carries the max.
        sources.sort(key=lambda pair: (-pair[1], pair[0]))
        visited: Dict[ObjectId, float] = {}
        outref_stamps: Dict[ObjectId, float] = {}
        for root, stamp in sources:
            if root.site != site_id or not site.heap.contains(root):
                continue
            stack = [root]
            while stack:
                oid = stack.pop()
                if oid in visited:
                    continue
                visited[oid] = stamp
                for ref in site.heap.get(oid).iter_refs():
                    if ref.site == site_id:
                        if ref not in visited and site.heap.contains(ref):
                            stack.append(ref)
                    else:
                        current = outref_stamps.get(ref)
                        if current is None or stamp > current:
                            outref_stamps[ref] = stamp
        self.last_trace_time[site_id] = now
        by_target: Dict[SiteId, List[Tuple[ObjectId, float]]] = {}
        for target, stamp in sorted(outref_stamps.items()):
            by_target.setdefault(target.site, []).append((target, stamp))
        for target_site, pairs in sorted(by_target.items()):
            site.send(target_site, StampUpdate(stamps=tuple(pairs)))

    def _on_stamp_update(self, message: Message) -> None:
        stamps = self.inref_stamps[message.dst]
        for target, stamp in message.payload.stamps:
            current = stamps.get(target)
            if current is None or stamp > current:
                stamps[target] = stamp

    # -- threshold service -------------------------------------------------------------------

    def compute_threshold(self) -> None:
        """Coordinator polls every site for its last-trace time."""
        self._generation += 1
        self._replies = {}
        coordinator = self.sim.site(self.coordinator)
        for site_id in sorted(self.sim.sites):
            coordinator.send(site_id, GcTimeRequest(generation=self._generation))

    def _on_time_request(self, message: Message) -> None:
        site = self.sim.site(message.dst)
        site.send(
            self.coordinator,
            GcTimeReply(
                generation=message.payload.generation,
                last_trace_time=self.last_trace_time[message.dst],
            ),
        )

    def _on_time_reply(self, message: Message) -> None:
        if message.payload.generation != self._generation:
            return
        self._replies[message.src] = message.payload.last_trace_time
        if len(self._replies) == len(self.sim.sites):
            # Announce the *previous* poll's minimum: strictly older than any
            # root stamp re-propagated during the current round, hence safe.
            if self._previous_poll:
                threshold = min(self._previous_poll.values())
                self.threshold = threshold
                coordinator = self.sim.site(self.coordinator)
                for site_id in sorted(self.sim.sites):
                    coordinator.send(site_id, ThresholdAnnounce(threshold=threshold))
            self._previous_poll = dict(self._replies)

    def _on_threshold(self, message: Message) -> None:
        """Flag every inref stamped strictly below the threshold as garbage."""
        threshold = message.payload.threshold
        site = self.sim.site(message.dst)
        stamps = self.inref_stamps[message.dst]
        for target in site.inrefs.targets():
            entry = site.inrefs.get(target)
            if entry is None or entry.garbage:
                continue
            stamp = stamps.get(target)
            if stamp is not None and stamp < threshold:
                entry.garbage = True
                self.sim.metrics.incr("baseline.hughes.inrefs_flagged")

    # -- convenience driver --------------------------------------------------------------------

    def run_round(self, settle_time: float = 50.0, propagation_passes: int = 3) -> None:
        """One full Hughes round: stamp sweeps, local traces, threshold."""
        for _ in range(propagation_passes):
            for site_id in sorted(self.sim.sites):
                self.run_stamp_trace(site_id)
                self.sim.run_for(settle_time)
        for site_id in sorted(self.sim.sites):
            if not self.sim.site(site_id).crashed:
                self.sim.site(site_id).run_local_trace()
            self.sim.run_for(settle_time)
        self.compute_threshold()
        self.sim.settle(settle_time)
