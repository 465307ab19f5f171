"""A site's at-least-once channel (section 4.6 hardening), one record per peer.

**Updates** (:mod:`repro.gc.update`) are state transfers: the sender stamps
contiguous per-peer seqs and keeps one retransmission timer per peer, running
while the last update sent is unacked; the receiver keeps one *anchor* per
peer, the seq of the last update applied in order, which acks carry.
**Mutation payloads** are not idempotent: :meth:`Site.send` stamps a second
per-peer seq on each and :meth:`Site.receive` drops one the record has seen.
The record keeps the seq below which all arrived plus the sparse set of
out-of-order arrivals above it, so a duplicate is caught even when it
overtakes fresher traffic; under per-pair FIFO delivery that set stays empty.
"""

from __future__ import annotations

from collections import defaultdict
from typing import AbstractSet, Callable, Dict, Iterable, List, Mapping, Set, Tuple

from ..ids import SiteId
from ..metrics import names
from ..net.message import Message, Payload
from .update import (
    UpdateAck,
    UpdateDeltaPayload,
    UpdatePayload,
    UpdateRefreshRequest,
    apply_update,
    apply_update_delta,
)

#: The retransmission timeout: an update left unacked this long is replaced
#: by a fresh full update.  It doubles per consecutive retransmission (capped
#: at 8x), and after ``UPDATE_RETRANSMIT_LIMIT`` of them the sender gives up
#: and marks the peer desynced; the next GC tick starts the repair over.
UPDATE_RETRANSMIT_TIMEOUT = 40.0
UPDATE_RETRANSMIT_LIMIT = 5

_NO_GAPS: AbstractSet[int] = frozenset()


class _Peer:
    """Both ends of the channel toward one peer site."""

    __slots__ = ("update_seq", "anchor", "timer", "attempts", "desynced",
                 "mutation_seq", "high_water", "pending")

    def __init__(self) -> None:
        self.update_seq = 0  # seq of the last update sent
        self.anchor = 0  # seq of the last update applied in order
        self.timer = None  # the retransmission timer, while one runs
        self.attempts = 0  # retransmissions spent by the running timer's chain
        # The peer lost our updates (the repair chain gave up, or the timer
        # fired while we were down), so its view of our outref distances may
        # be stale enough to freeze distance propagation: the next GC tick,
        # even one whose trace the planner skips, sends it a full update.
        self.desynced = False
        self.mutation_seq = 0  # seq of the last mutation payload sent
        self.high_water = 0  # every mutation seq up to here was received
        # Received seqs above ``high_water``: a set once one arrives early.
        self.pending: AbstractSet[int] = _NO_GAPS

    def seen(self, seq: int) -> bool:
        """Record received mutation ``seq``; True iff it arrived before."""
        if seq <= self.high_water or seq in self.pending:
            return True
        if not self.pending:
            if seq == self.high_water + 1:  # in order, as FIFO delivers
                self.high_water = seq
                return False
            self.pending = set()
        self.pending.add(seq)
        while self.high_water + 1 in self.pending:
            self.high_water += 1
            self.pending.discard(self.high_water)
        return False


class UpdateChannel:
    """The at-least-once layer of one site, sending through ``site.send``
    (looked up at each call, so a patched ``send`` sees every update and
    ack)."""

    def __init__(self, site) -> None:
        self._site = site
        self._site_id = site.site_id
        self._scheduler = site.scheduler
        self._metrics = site.metrics
        self._collector = site.collector
        self._inrefs = site.inrefs
        # A peer's record is made on first use.
        self.peers: Dict[SiteId, _Peer] = defaultdict(_Peer)

    def stamp(self, dst: SiteId, payload: Payload) -> Payload:
        """``payload`` with the next mutation seq toward ``dst``."""
        peer = self.peers[dst]
        peer.mutation_seq += 1
        return payload.with_seq(peer.mutation_seq)

    def handlers(self) -> Dict[type, Callable[[Message], None]]:
        return {
            UpdatePayload: self._on_update,
            UpdateDeltaPayload: self._on_update,
            UpdateRefreshRequest: self._on_refresh_request,
            UpdateAck: self._on_ack,
        }

    # -- sending -------------------------------------------------------------

    def send_updates(self, updates: Mapping[SiteId, UpdatePayload]) -> None:
        """Send one trace's updates, then repair the desynced peers.  Only
        a *full* update this tick repairs one; a delta is computed against
        state the peer may not have."""
        for dst, payload in sorted(updates.items()):
            self.send_update(dst, payload)
        self.flush_desynced(skip={dst for dst, p in updates.items() if p.full})

    def send_update(self, dst: SiteId, payload: UpdatePayload, attempts: int = 0) -> None:
        """Send one update, stamped with the next seq toward ``dst`` and
        retransmitted until acknowledged.

        A full update (re)arms the peer's timer: it supersedes everything
        sent before it.  A delta arms it only when none is running, since
        the running one already covers it.  ``attempts`` counts the
        retransmissions already spent on this repair and doubles the
        timeout (capped at 8x).
        """
        peer = self.peers[dst]
        peer.update_seq += 1
        if payload.full or peer.timer is None:
            if peer.timer is not None:
                peer.timer.cancel()
            peer.attempts = attempts
            peer.timer = self._scheduler.schedule(
                UPDATE_RETRANSMIT_TIMEOUT * (2 ** min(attempts, 3)),
                self._retransmit_update,
                label=f"update-retransmit:{self._site_id}->{dst}",
                site=self._site_id,
                arg=dst,
            )
        self._site.send(dst, payload.with_seq(peer.update_seq))

    def _retransmit_update(self, dst: SiteId) -> None:
        peer = self.peers[dst]
        peer.timer = None
        if self._site.crashed:
            # Nothing is sent while crashed, and after recovery no timer is
            # left to resend: the next GC tick repairs the peer instead.
            peer.desynced = True
            return
        attempts = peer.attempts + 1
        if attempts > UPDATE_RETRANSMIT_LIMIT:
            # Give up on *this chain*: the peer is gone or the partition
            # outlives our patience.  Safe -- a missed update only delays
            # collection -- and the next GC tick restarts the repair with a
            # fresh full update and a fresh budget.
            self._metrics.incr(names.UPDATE_RETRANSMITS_ABANDONED)
            peer.desynced = True
            return
        self._metrics.incr(names.UPDATE_RETRANSMITS)
        # Resending the original delta would be wrong: newer deltas may have
        # been delivered ahead of the retransmission (FIFO places it *after*
        # them), so its content is folded into a fresh full state transfer.
        self.send_update(dst, self._collector.build_full_update(dst), attempts)

    def desynced_peers(self) -> List[SiteId]:
        return sorted(site_id for site_id, peer in self.peers.items() if peer.desynced)

    def flush_desynced(self, skip: Iterable[SiteId] = ()) -> None:
        """Clear every desynced mark and send each peer not in ``skip`` (the
        peers this tick already sent a full update) a full update.  Peers
        still unreachable give up again and are marked again, so the retry
        cadence is one chain per GC tick; it stops the moment an ack
        arrives.  Called by every GC tick, even one the planner skips:
        otherwise every site could skip with no one resyncing."""
        for dst in self.desynced_peers():
            self.peers[dst].desynced = False
            if dst not in skip:
                self.send_update(dst, self._collector.build_full_update(dst))

    # -- receiving -----------------------------------------------------------

    def _on_update(self, message: Message) -> None:
        """The one receive step of both update kinds.

        At or below the anchor an update is a duplicate: re-acking the
        anchor is what stops the sender's retransmissions when an earlier
        ack was lost.  A delta more than one past the anchor was diffed
        against state never applied: it is dropped *unacked* and a refresh
        asked for; if the request is lost, the sender's timer, which resends
        a full update, re-anchors us.  Anything else is acked, becomes the
        anchor and applies.
        """
        src, payload = message.src, message.payload
        peer = self.peers[src]
        anchor = peer.anchor
        if payload.seq <= anchor:
            self._site.send(src, UpdateAck(seq=anchor))
            self._metrics.incr(names.dup_suppressed(message.kind))
            return
        if not payload.full and payload.seq != anchor + 1:
            self._metrics.incr(names.UPDATE_GAPS_DETECTED)
            self._metrics.incr(names.UPDATE_REFRESHES_REQUESTED)
            self._site.send(src, UpdateRefreshRequest())
            return
        self._site.send(src, UpdateAck(seq=payload.seq))
        peer.anchor = payload.seq
        apply = apply_update if payload.full else apply_update_delta
        apply(self._inrefs, src, payload)

    def _on_refresh_request(self, message: Message) -> None:
        self._metrics.incr(names.UPDATE_REFRESHES_SERVED)
        self.send_update(message.src, self._collector.build_full_update(message.src))

    def _on_ack(self, message: Message) -> None:
        # Acks are cumulative: one covering the last update sent stops the
        # timer; an older one says nothing about the updates after it.
        peer = self.peers[message.src]
        if peer.timer is not None and message.payload.seq >= peer.update_seq:
            peer.timer.cancel()
            peer.timer = None

    # -- audit ---------------------------------------------------------------

    def audit(self) -> Tuple[Dict[SiteId, int], Dict[SiteId, int], Set[SiteId], Set[SiteId]]:
        """:class:`SiteAudit`'s four channel fields: per peer the anchor and
        the last update seq sent, and the peers with a running timer and
        those marked desynced."""
        peers = self.peers.items()
        return (
            {site_id: peer.anchor for site_id, peer in peers if peer.anchor},
            {site_id: peer.update_seq for site_id, peer in peers if peer.update_seq},
            {site_id for site_id, peer in peers if peer.timer is not None},
            {site_id for site_id, peer in peers if peer.desynced},
        )
