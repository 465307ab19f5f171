"""Sequence windows for duplicate suppression on the mutation channel.

Duplicate delivery (a fault plan's copies, a retransmission) is an event
every receiver must tolerate.  Mutation-protocol payloads (inserts, remote
copies, mutator hops) are not idempotent, so senders stamp a per-(sender,
receiver) contiguous sequence number on each and receivers run a
:class:`DedupWindow` per sender.  Update messages need no window: they are
state transfers, so the receiver keeps only the sequence number of the last
update it applied in order (``Site._update_anchor``) and treats anything at
or below it as a duplicate.

The window is exact under both FIFO and non-FIFO delivery: it tracks the
highest sequence below which everything has been seen (``high_water``) plus
the sparse set of out-of-order arrivals above it, so a duplicate is detected
even when it overtakes fresher traffic.  Under per-pair FIFO delivery (the
default, assumption R1) the sparse set stays empty and the check is a single
integer comparison.
"""

from __future__ import annotations

from typing import Set


class DedupWindow:
    """Tracks which contiguous sequence numbers from one sender were seen.

    Sequence numbers start at 1 and are allocated contiguously by the
    sender; ``seen`` returns True for a duplicate and records first-time
    arrivals.
    """

    __slots__ = ("high_water", "_pending")

    def __init__(self) -> None:
        self.high_water = 0
        self._pending: Set[int] = set()

    def seen(self, seq: int) -> bool:
        """Record ``seq``; True iff it was already delivered before."""
        if seq <= self.high_water or seq in self._pending:
            return True
        self._pending.add(seq)
        while self.high_water + 1 in self._pending:
            self.high_water += 1
            self._pending.discard(self.high_water)
        return False

    @property
    def pending_gaps(self) -> int:
        """Out-of-order arrivals still above the contiguous frontier."""
        return len(self._pending)
