"""Update messages (sections 2 and 3).

After a local trace, a site reports to each target site:

- **removals**: outrefs the trace no longer reached (the target removes this
  site from the source list of the matching inref; an inref whose source list
  empties is deleted, which is how acyclic distributed garbage dies);
- **distances**: new distance estimates for surviving outrefs (the target
  folds them into the per-source distance of the matching inref, driving the
  distance heuristic forward).

There is one protocol.  Normally only what *changed* since the previous
update to that target travels, as an :class:`UpdateDeltaPayload` (the paper's
optimization).  Every ``full_update_period``-th full trace -- and on every
retransmission, gap repair or recovery -- a site instead sends an
:class:`UpdatePayload`: the complete list of outrefs it holds toward the
target.  These are idempotent state transfers in the spirit of the
fault-tolerant reference listing of [ML94]: they resynchronize a target that
missed earlier messages (crash, partition, drop).  On receiving one the
target also prunes this source from any inref *not* listed -- which is safe
because the sender builds the list from its committed table at send time,
and per-pair FIFO delivery means no insert from the same sender can be
outstanding behind it.  Both kinds ride one at-least-once channel: contiguous
per-(sender, target) sequence numbers, a receiver-side *anchor* per sender
(the seq of the last update applied in order; anything at or below it is a
duplicate), cumulative acks of that anchor (:class:`UpdateAck`), and one
sender-side retransmission timer per target.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Tuple

from ..ids import ObjectId, SiteId
from ..net.message import Payload
from .inrefs import InrefTable


@dataclass(frozen=True, slots=True)
class UpdatePayload(Payload):
    """The complete list of outrefs the sender holds toward one target site.

    A full state transfer: the receiver sets the listed distances, prunes the
    sender from every inref not listed, and re-anchors its delta chain here.

    ``seq`` is the at-least-once channel sequence number stamped by the
    sending site: contiguous per (sender, target) pair, acknowledged with
    :class:`UpdateAck`, and compared with the receiver's anchor: a full
    update applies at any seq past it and is a duplicate at or below it.
    ``-1`` marks a payload not yet stamped (direct construction).
    """

    distances: Tuple[Tuple[ObjectId, int], ...] = ()
    seq: int = -1

    full = True  # class attribute, mirrored by UpdateDeltaPayload.full = False

    def with_seq(self, seq: int) -> "UpdatePayload":
        """This payload as the reliable channel stamps it."""
        return UpdatePayload(self.distances, seq)

    def size_units(self) -> int:
        return max(1, len(self.distances))


@dataclass(frozen=True, slots=True)
class UpdateDeltaPayload(Payload):
    """Only what changed since the previous update to this target site.

    Instead of re-listing distances for every surviving outref, the sender
    diffs its committed outref table against the per-destination *shipped*
    state (what the last update chain said) and transmits ``adds`` (outrefs
    the peer has not been told distances for), ``distances`` (changed
    estimates), and ``removals``.  Deltas only make sense applied **in order
    on top of the state they were diffed against**: ``seq`` numbers are
    contiguous with the full updates on the same (sender, dst) pair and
    the receiver applies a delta only when ``seq`` is exactly one past its
    anchor (the last in-order update).  Anything else is a *gap*: the
    receiver discards a delta further ahead, requests a state transfer with
    :class:`UpdateRefreshRequest`, and keeps rejecting deltas (its anchor
    does not move) until a full :class:`UpdatePayload` re-anchors it.  A
    delta at or below the anchor is a duplicate.

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
    by the sender's own retransmission timer (no ack has covered the gapped
    sequence), or at the latest by the periodic full refresh.
    """


@dataclass(frozen=True, slots=True)
class UpdateAck(Payload):
    """Receiver -> sender: every update up to ``seq`` is applied or superseded.

    Acks are cumulative: ``seq`` is the receiver's anchor, which advances only
    in order or by a full update that supersedes everything before it, so it
    never over-claims.  An ack covering the last seq sent stops the sender's
    retransmission timer; an older one is ignored.  Acks are never
    themselves retransmitted -- a lost ack just means one spurious
    retransmission, which the receiver treats as a duplicate (and re-acks).
    """

    seq: int


def apply_update_delta(
    inrefs: InrefTable, source: SiteId, payload: UpdateDeltaPayload
) -> bool:
    """Apply one in-order delta at the target site.

    The caller (the site's gap check) guarantees ordering.  Adds and changed
    distances both fold into the per-source distance of the matching inref
    (news about an inref not held, or not listing ``source``, is stale and
    ignored); removals empty source lists.  No prune: a delta never claims
    to be the complete list.  Returns True if any inref distance changed or
    any source was removed, which tells the caller whether suspicion states
    may have shifted.
    """
    changed = inrefs.set_source_distances(source, payload.adds)
    changed |= inrefs.set_source_distances(source, payload.distances)
    for target in payload.removals:
        changed |= inrefs.remove_source(target, source)
    return changed


def apply_update(inrefs: InrefTable, source: SiteId, payload: UpdatePayload) -> bool:
    """Apply a full state transfer at the target site: set the listed
    distances, prune ``source`` from every inref not listed.

    Returns True if anything changed, as :func:`apply_update_delta` does.
    """
    changed = inrefs.set_source_distances(source, payload.distances)
    listed = {target for target, _ in payload.distances}
    # The per-source index makes this prune proportional to the inrefs
    # actually sourced from the sender, not the whole table.
    for target in inrefs.targets_from_source(source):
        if target not in listed:
            changed |= inrefs.remove_source(target, source)
    return changed
