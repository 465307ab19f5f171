"""Central-service cycle detection (Beckerle-Ekanadham [BE86], Ladin-Liskov
[LL92] family).

Each site ships its **inref-to-outref reachability summary** to a designated
service, which assembles the global ioref graph, computes which inrefs are
unreachable from any root, and commands the sites to flag them.  Concretely,
one detection round is:

1. service -> every site: :class:`SummaryRequest` (with a generation);
2. site -> service: :class:`SummaryReply` carrying (a) the outrefs reachable
   from its persistent/variable roots, (b) for *every* inref, the outrefs
   locally reachable from it (note: *full* reachability, not just the
   suspected region -- one of the paper's cost criticisms of
   centralized/forwarding schemes), and (c) the site's local-trace epoch;
3. once **all** sites replied, the service runs the root-reachability fixed
   point over the summary graph and sends each site a :class:`FlagCommand`
   naming its garbage inrefs;
4. a site applies a flag only if its epoch still matches and the inref was
   not barrier-cleaned meanwhile (the epoch guard makes stale summaries
   harmless; with it, a racing mutation merely wastes the round).

Drawbacks reproduced measurably (paper section 7, "Central Service"):

- the service is a performance bottleneck: its message load scales with the
  total ioref population of the system, not with the garbage;
- "cycle collection still depends on timely correspondence between the
  service and all sites": one crashed site (or the service) stalls every
  round, for everyone.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Set, Tuple

from ..core.backinfo import TraceEnvironment, compute_outsets_bottom_up
from ..core.distance import trace_clean_phase
from ..ids import ObjectId, SiteId
from ..net.message import Message, Payload
from ..sim.simulation import Simulation


@dataclass(frozen=True)
class SummaryRequest(Payload):
    generation: int


@dataclass(frozen=True)
class SummaryReply(Payload):
    generation: int
    epoch: int
    root_outrefs: Tuple[ObjectId, ...]
    # (inref target, outrefs locally reachable from it)
    inref_outsets: Tuple[Tuple[ObjectId, Tuple[ObjectId, ...]], ...]

    def size_units(self) -> int:
        return max(
            1,
            len(self.root_outrefs)
            + sum(1 + len(outset) for _, outset in self.inref_outsets),
        )


@dataclass(frozen=True)
class FlagCommand(Payload):
    generation: int
    epoch: int
    targets: Tuple[ObjectId, ...]

    def size_units(self) -> int:
        return max(1, len(self.targets))


class CentralServiceCollector:
    """A logically central detector fed by per-site reachability summaries."""

    def __init__(self, sim: Simulation, service: SiteId):
        self.sim = sim
        self.service = service
        self._generation = 0
        self._replies: Dict[SiteId, SummaryReply] = {}
        self.round_in_progress = False
        self.rounds_completed = 0
        self.inrefs_flagged = 0
        for site in sim.sites.values():
            site.register_handler(SummaryRequest, self._on_request)
            site.register_handler(SummaryReply, self._on_reply)
            site.register_handler(FlagCommand, self._on_flag)

    # -- driving -------------------------------------------------------------------

    def start_round(self) -> None:
        if self.round_in_progress:
            return
        self._generation += 1
        self._replies = {}
        self.round_in_progress = True
        service = self.sim.site(self.service)
        for site_id in sorted(self.sim.sites):
            service.send(site_id, SummaryRequest(generation=self._generation))

    def run_round(self, settle_time: float = 50.0) -> None:
        """Local traces everywhere, then one service round."""
        self.sim.run_gc_round(settle_time)
        self.start_round()
        self.sim.settle(settle_time)

    # -- site side --------------------------------------------------------------------

    def _compute_summary(self, site_id: SiteId) -> SummaryReply:
        site = self.sim.site(site_id)
        # Root-reachable outrefs: a plain clean-phase trace from all roots.
        roots = [(oid, 0) for oid in sorted(site.heap.persistent_roots)]
        roots += [(oid, 0) for oid in sorted(site.heap.variable_roots)]
        clean = trace_clean_phase(
            site.heap, roots, variable_outrefs=sorted(site.variable_outrefs)
        )
        # Full inref -> outref reachability (every inref, nothing skipped):
        # exactly the information the paper says such schemes must maintain.
        env = TraceEnvironment(
            heap=site.heap,
            marks=site.heap.fresh_marks(),  # nothing is clean
            is_clean_outref=lambda ref: False,
        )
        inref_targets = [
            entry.target for entry in site.inrefs.entries() if not entry.garbage
        ]
        result = compute_outsets_bottom_up(env, sorted(inref_targets))
        self.sim.metrics.incr(
            "baseline.central.summary_scans", result.objects_scanned
        )
        return SummaryReply(
            generation=self._generation,
            epoch=site.collector.traces_run,
            root_outrefs=tuple(sorted(clean.outref_distances)),
            inref_outsets=tuple(
                (target, tuple(sorted(result.outsets.get(target, frozenset()))))
                for target in sorted(inref_targets)
            ),
        )

    def _on_request(self, message: Message) -> None:
        payload: SummaryRequest = message.payload
        if payload.generation != self._generation:
            return
        site = self.sim.site(message.dst)
        site.send(self.service, self._compute_summary(message.dst))

    # -- service side ----------------------------------------------------------------------

    def _on_reply(self, message: Message) -> None:
        payload: SummaryReply = message.payload
        if payload.generation != self._generation or not self.round_in_progress:
            return
        self._replies[message.src] = payload
        if len(self._replies) < len(self.sim.sites):
            return
        garbage_by_site = self._detect()
        service = self.sim.site(self.service)
        for site_id in sorted(garbage_by_site):
            targets = garbage_by_site[site_id]
            if targets:
                service.send(
                    site_id,
                    FlagCommand(
                        generation=self._generation,
                        epoch=self._replies[site_id].epoch,
                        targets=tuple(sorted(targets)),
                    ),
                )
        self.round_in_progress = False
        self.rounds_completed += 1

    def _detect(self) -> Dict[SiteId, Set[ObjectId]]:
        """Root-reachability over the assembled ioref graph.

        Nodes are inref targets (object ids); an outref naming object z *is*
        an edge into inref z.  Roots seed the frontier with their reachable
        outrefs' targets.
        """
        outsets: Dict[ObjectId, Tuple[ObjectId, ...]] = {}
        all_inrefs: Set[ObjectId] = set()
        mentioned: Set[ObjectId] = set()
        frontier: List[ObjectId] = []
        for reply in self._replies.values():
            frontier.extend(reply.root_outrefs)
            mentioned.update(reply.root_outrefs)
            for target, outset in reply.inref_outsets:
                all_inrefs.add(target)
                outsets[target] = outset
                mentioned.update(outset)
        if mentioned - all_inrefs:
            # Some outref's owner has not registered the matching inref yet
            # (an insert is in flight): the snapshot is torn, so its
            # reachability fixed point could miss live paths.  Abort the
            # round rather than risk an unsafe flag.
            self.sim.metrics.incr("baseline.central.torn_rounds")
            return {site_id: set() for site_id in self.sim.sites}
        live: Set[ObjectId] = set()
        while frontier:
            target = frontier.pop()
            if target in live:
                continue
            live.add(target)
            frontier.extend(outsets.get(target, ()))
        garbage_by_site: Dict[SiteId, Set[ObjectId]] = {
            site_id: set() for site_id in self.sim.sites
        }
        for target in all_inrefs - live:
            garbage_by_site[target.site].add(target)
        return garbage_by_site

    # -- flag application ----------------------------------------------------------------------

    def _on_flag(self, message: Message) -> None:
        payload: FlagCommand = message.payload
        site = self.sim.site(message.dst)
        if site.collector.traces_run != payload.epoch:
            # A local trace ran since the summary: the information behind
            # this command is stale; skip the round (conservative).
            self.sim.metrics.incr("baseline.central.stale_flags_skipped")
            return
        threshold = site.inrefs.suspicion_threshold
        for target in payload.targets:
            entry = site.inrefs.get(target)
            if entry is None or entry.garbage:
                continue
            if entry.barrier_clean:
                # Mutator activity touched it since the summary: keep it.
                self.sim.metrics.incr("baseline.central.stale_flags_skipped")
                continue
            entry.garbage = True
            self.inrefs_flagged += 1
            self.sim.metrics.incr("baseline.central.inrefs_flagged")
