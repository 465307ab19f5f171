"""The omniscient reachability oracle.

The oracle sees every heap, every root, and every in-flight message at once,
and computes ground-truth liveness: an object is live iff it is reachable
from some root following references across sites.  It exists for testing and
benchmarking -- the collectors under test never consult it.

It is a pure function of one state, :meth:`Simulation.audit_state`, which
either engine builds fresh on every query (the sharded one in one broadcast),
so a sharded run is audited on the workers' live heaps.  Roots, mirroring
the paper's model plus our explicit message model:

- persistent roots at every site;
- application-variable roots: local pins and variable-held outrefs
  (mutator positions are pinned variables, so they are covered);
- references carried by in-flight messages (a mutator hop or remote copy in
  transit can still install the reference at its destination);
- references parked in a site's deferred writes during a non-atomic trace.

Safety is the statement checked by :meth:`check_safety`: every object
reachable from the roots actually exists.  A collector that deleted a live
object leaves a dangling reference on a live path, which the check reports
as an :class:`~repro.errors.OracleError`.
"""

from __future__ import annotations

from collections import Counter
from typing import TYPE_CHECKING, Dict, List, Mapping, Set, Tuple

from ..errors import OracleError
from ..ids import ObjectId
from ..metrics import names

if TYPE_CHECKING:
    from ..sim.simulation import AuditState


def _roots(state: "AuditState") -> Set[ObjectId]:
    roots: Set[ObjectId] = set()
    for site in state.sites.values():
        roots.update(site.roots)
    for message in state.in_flight:
        roots.update(message.payload.carried_refs())
    return roots


def _walk(state: "AuditState") -> Tuple[Set[ObjectId], List[str]]:
    """One walk from the roots: the live objects, and a safety violation
    per reachable reference to a missing object."""
    live: Set[ObjectId] = set()
    missing: Set[ObjectId] = set()
    stack: List[ObjectId] = list(_roots(state))
    while stack:
        oid = stack.pop()
        if oid in live or oid in missing:
            continue
        site = state.sites.get(oid.site)
        refs = None if site is None else site.objects.get(oid)
        if refs is None:
            missing.add(oid)
            continue
        live.add(oid)
        stack.extend(ref for ref in refs if ref not in live)
    return live, [
        f"SAFETY VIOLATION: live object {oid} was collected"
        if oid.site in state.sites
        else f"live reference to unknown site: {oid}"
        for oid in sorted(missing)
    ]


def _garbage(state: "AuditState") -> Dict[ObjectId, Tuple[ObjectId, ...]]:
    """Existing objects no root reaches -> their references."""
    live = _walk(state)[0]
    return {
        oid: refs for site in state.sites.values() for oid, refs in site.objects.items()
        if oid not in live
    }


#: Per kind, the (sent, delivered, dropped) counters of originals and copies.
_LEGS = (
    (False, (names.msg_sent, names.msg_delivered_kind, names.msg_dropped_kind)),
    (True, (names.msg_duplicated, names.msg_dup_delivered, names.msg_dup_dropped)),
)


def audit_violations(state: "AuditState", counters: Mapping[str, int]) -> List[str]:
    """The state-level checks of :meth:`Simulation.check_invariants`:
    safety, message conservation per kind, no garbage-flagged inref live,
    no update anchor past its sender's last seq, and none behind it unless
    the sender still repairs that receiver.  ``counters`` are the run's
    merged ``messages.*`` counters."""
    live, violations = _walk(state)
    for site in state.sites.values():
        for oid in sorted(site.garbage_inrefs & live):
            violations.append(f"garbage-flagged inref {oid} is live")
    # A receiver's anchor names an update its sender sent; one past the
    # sender's last seq would drop the sender's next updates as duplicates.
    for receiver, site in state.sites.items():
        for sender, anchor in sorted(site.update_anchors.items()):
            sent = state.sites[sender].update_seqs.get(receiver, 0)
            if anchor > sent:
                violations.append(
                    f"update anchor {receiver}<-{sender} is {anchor}, past "
                    f"{sender}'s last update seq {sent}"
                )
    # One behind it is repaired by the sender's retransmission timer or, once
    # the sender has given up or crashed through the timeout, by a full
    # update on its next GC tick; with neither, the receiver stays behind.
    for sender, site in state.sites.items():
        repairing = site.update_timers | site.desynced_peers
        for receiver, sent in sorted(site.update_seqs.items()):
            anchor = state.sites[receiver].update_anchors.get(sender, 0)
            if anchor < sent and receiver not in repairing:
                violations.append(
                    f"update anchor {receiver}<-{sender} is {anchor}, behind "
                    f"{sender}'s last update seq {sent} with no timer running "
                    f"and the peer not marked desynced"
                )
    flying = Counter((message.kind, message.dup) for message in state.in_flight)
    kinds = {key.rsplit(".", 1)[1] for key in counters} | {kind for kind, _ in flying}
    for kind in sorted(kind for kind in kinds if kind[:1].isupper()):
        for dup, legs in _LEGS:
            sent, delivered, dropped = (counters.get(leg(kind), 0) for leg in legs)
            if sent != delivered + dropped + flying[kind, dup]:
                violations.append(
                    f"{kind}{' copies' if dup else ''}: sent={sent} delivered="
                    f"{delivered} dropped={dropped} in_flight={flying[kind, dup]}"
                )
    return violations


class Oracle:
    """Ground-truth liveness for a whole simulation, on either engine."""

    def __init__(self, sim):
        self.sim = sim

    def roots(self) -> Set[ObjectId]:
        return _roots(self.sim.audit_state())

    def live_set(self) -> Set[ObjectId]:
        """All object ids reachable from the roots (existing objects only)."""
        return _walk(self.sim.audit_state())[0]

    def garbage_set(self) -> Set[ObjectId]:
        """Existing objects not reachable from any root."""
        return set(_garbage(self.sim.audit_state()))

    def distributed_cyclic_garbage(self) -> Set[ObjectId]:
        """Garbage objects lying on inter-site cycles (plus what they reach).

        These are exactly the objects plain local tracing can never collect:
        garbage objects reachable from some garbage cycle that spans sites.
        Computed as: garbage objects reachable from a garbage object that is
        part of a cross-site strongly connected component.
        """
        garbage = _garbage(self.sim.audit_state())
        # Build the garbage subgraph.
        edges: Dict[ObjectId, List[ObjectId]] = {
            oid: [ref for ref in refs if ref in garbage] for oid, refs in garbage.items()
        }
        cyclic_seeds = _cross_site_scc_members(edges)
        # Everything reachable from a cross-site-cycle member stays
        # uncollectable under plain local tracing.
        reachable: Set[ObjectId] = set()
        stack = list(cyclic_seeds)
        while stack:
            oid = stack.pop()
            if oid in reachable:
                continue
            reachable.add(oid)
            stack.extend(edges.get(oid, ()))
        return reachable

    # -- checks --------------------------------------------------------------------

    def check_safety(self) -> None:
        """Raise :class:`OracleError` if any live path dangles."""
        violations = _walk(self.sim.audit_state())[1]
        if violations:
            raise OracleError(violations[0])

    def assert_no_garbage(self) -> None:
        garbage = self.garbage_set()
        if garbage:
            sample = sorted(garbage)[:10]
            raise OracleError(f"{len(garbage)} garbage objects remain, e.g. {sample}")


def _cross_site_scc_members(edges: Dict[ObjectId, List[ObjectId]]) -> Set[ObjectId]:
    """Members of strongly connected components spanning more than one site.

    Iterative Tarjan over an explicit adjacency dict.  Single-site
    components (including self-loops) are excluded: local tracing handles
    those fine; only cross-site components defeat it.
    """
    index: Dict[ObjectId, int] = {}
    low: Dict[ObjectId, int] = {}
    on_stack: Set[ObjectId] = set()
    scc_stack: List[ObjectId] = []
    counter = 0
    members: Set[ObjectId] = set()

    for root in edges:
        if root in index:
            continue
        work = [(root, iter(edges[root]))]
        index[root] = low[root] = counter
        counter += 1
        scc_stack.append(root)
        on_stack.add(root)
        while work:
            node, it = work[-1]
            advanced = False
            for ref in it:
                if ref not in edges:
                    continue
                if ref not in index:
                    index[ref] = low[ref] = counter
                    counter += 1
                    scc_stack.append(ref)
                    on_stack.add(ref)
                    work.append((ref, iter(edges[ref])))
                    advanced = True
                    break
                if ref in on_stack:
                    low[node] = min(low[node], index[ref])
            if advanced:
                continue
            work.pop()
            if low[node] == index[node]:
                component: List[ObjectId] = []
                while True:
                    member = scc_stack.pop()
                    on_stack.discard(member)
                    component.append(member)
                    if member == node:
                        break
                sites = {member.site for member in component}
                if len(sites) > 1:
                    members.update(component)
            if work:
                parent = work[-1][0]
                low[parent] = min(low[parent], low[node])
    return members
