"""Update messages (sections 2 and 3).

After a local trace, a site reports to each target site:

- **removals**: outrefs the trace no longer reached (the target removes this
  site from the source list of the matching inref; an inref whose source list
  empties is deleted, which is how acyclic distributed garbage dies);
- **distances**: new distance estimates for surviving outrefs (the target
  folds them into the per-source distance of the matching inref, driving the
  distance heuristic forward).

Normally only *changed* distances are sent (the paper's optimization).  Every
``full_update_period``-th trace a site instead sends a **full** update: the
complete list of outrefs it holds toward the target.  Full updates are
idempotent state transfers in the spirit of the fault-tolerant reference
listing of [ML94]: they resynchronize a target that missed earlier messages
(crash, partition, drop) without acknowledgement machinery.  On receiving a
full update the target also prunes this source from any inref *not* listed --
which is safe because the sender builds the list from its committed table at
send time, and per-pair FIFO delivery means no insert from the same sender
can be outstanding behind it.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Tuple

from ..ids import ObjectId, SiteId
from ..net.message import Payload
from .inrefs import InrefTable


@dataclass(frozen=True, slots=True)
class UpdatePayload(Payload):
    """One post-trace update batch to a single target site.

    ``seq`` is the at-least-once channel sequence number stamped by the
    sending site (``GcConfig.reliable_updates``): contiguous per
    (sender, target) pair, acknowledged with :class:`UpdateAck`, and used by
    the receiver to suppress duplicate deliveries.  ``-1`` marks a payload
    outside the reliable channel (direct construction, reliability off).
    """

    distances: Tuple[Tuple[ObjectId, int], ...] = ()
    removals: Tuple[ObjectId, ...] = ()
    full: bool = False
    seq: int = -1

    def with_seq(self, seq: int) -> "UpdatePayload":
        """This payload as the reliable channel stamps it."""
        return UpdatePayload(self.distances, self.removals, self.full, seq)

    def size_units(self) -> int:
        return max(1, len(self.distances) + len(self.removals))


@dataclass(frozen=True, slots=True)
class UpdateDeltaPayload(Payload):
    """Only what changed since the previous update to this target site.

    ``GcConfig.delta_updates``: instead of re-listing distances for every
    surviving outref, the sender diffs its committed outref table against
    the per-destination *shipped* state (what the last update chain said)
    and transmits ``adds`` (outrefs the peer has not been told distances
    for), ``distances`` (changed estimates), and ``removals``.  Deltas only
    make sense applied **in order on top of the state they were diffed
    against**, so they require the reliable update channel: ``seq`` numbers
    are contiguous with the full updates on the same (sender, dst) pair and
    the receiver applies a delta only when ``seq`` is exactly one past its
    anchor (the last in-order update).  Anything else is a *gap*: the
    receiver discards the delta, requests a state transfer with
    :class:`UpdateRefreshRequest`, and stays un-anchored (rejecting further
    deltas) until a full :class:`UpdatePayload` re-anchors it.

    ``full`` mirrors :class:`UpdatePayload` so the channel layer can treat
    both uniformly; a delta is never a full state transfer.
    """

    adds: Tuple[Tuple[ObjectId, int], ...] = ()
    distances: Tuple[Tuple[ObjectId, int], ...] = ()
    removals: Tuple[ObjectId, ...] = ()
    seq: int = -1

    full = False  # class attribute: deltas never carry full-refresh semantics

    def with_seq(self, seq: int) -> "UpdateDeltaPayload":
        """This payload as the reliable channel stamps it."""
        return UpdateDeltaPayload(self.adds, self.distances, self.removals, seq)

    def size_units(self) -> int:
        return max(1, len(self.adds) + len(self.distances) + len(self.removals))


@dataclass(frozen=True, slots=True)
class UpdateRefreshRequest(Payload):
    """Receiver -> sender: 'my update state desynced; send a full update'.

    Sent on every gap-rejected delta.  Not itself acknowledged or
    retransmitted: a lost request is repaired by the next rejected delta,
    by the sender's own retransmission ladder (the gapped sequence was never
    acked), or at the latest by the periodic full refresh.
    """


@dataclass(frozen=True, slots=True)
class UpdateAck(Payload):
    """Receiver -> sender: update ``seq`` arrived (possibly as a duplicate).

    Acks are per-sequence, not cumulative: under FIFO a higher ack does not
    prove a lower sequence arrived (the lower one may have been dropped), so
    each outstanding sequence is confirmed individually.  Acks are never
    themselves retransmitted -- a lost ack just means one spurious
    retransmission, which the receiver's dedup window absorbs (and re-acks).
    """

    seq: int


def apply_update_delta(
    inrefs: InrefTable, source: SiteId, payload: UpdateDeltaPayload
) -> bool:
    """Apply one in-order delta at the target site.

    The caller (the site's gap check) guarantees ordering; application
    itself is the non-full half of :func:`apply_update`: adds and changed
    distances both fold into the per-source distance of the matching inref
    (an "add" the receiver has no source entry for is stale news about a
    reference already dropped -- ignored, exactly like a distance for an
    unknown source), removals empty source lists.  No prune: a delta never
    claims to be the complete list.
    """
    changed = False
    for target, distance in payload.adds:
        entry = inrefs.get(target)
        if entry is None or source not in entry.sources:
            continue
        if entry.sources[source] != distance:
            entry.set_source_distance(source, distance)
            changed = True
    for target, distance in payload.distances:
        entry = inrefs.get(target)
        if entry is None or source not in entry.sources:
            continue
        if entry.sources[source] != distance:
            entry.set_source_distance(source, distance)
            changed = True
    for target in payload.removals:
        entry = inrefs.get(target)
        if entry is not None and source in entry.sources:
            inrefs.remove_source(target, source)
            changed = True
    return changed


def apply_update(inrefs: InrefTable, source: SiteId, payload: UpdatePayload) -> bool:
    """Apply an update message at the target site.

    Returns True if any inref distance changed or any source was removed,
    which tells the caller whether suspicion states may have shifted.
    """
    changed = False
    for target, distance in payload.distances:
        entry = inrefs.get(target)
        if entry is None or source not in entry.sources:
            continue
        if entry.sources[source] != distance:
            entry.set_source_distance(source, distance)
            changed = True
    for target in payload.removals:
        entry = inrefs.get(target)
        if entry is not None and source in entry.sources:
            inrefs.remove_source(target, source)
            changed = True
    if payload.full:
        listed = {target for target, _ in payload.distances}
        listed.update(payload.removals)
        # The per-source index makes this prune proportional to the inrefs
        # actually sourced from the sender, not the whole table.
        for target in inrefs.targets_from_source(source):
            if target in listed:
                continue
            entry = inrefs.get(target)
            if entry is not None and source in entry.sources:
                inrefs.remove_source(target, source)
                changed = True
    return changed
