"""Back-trace protocol messages.

Three logical kinds, matching the paper's complexity accounting (section
4.6): one :class:`BackCall` and one :class:`BackReply` per inter-site
reference traversed, plus one :class:`BackOutcome` per participant in the
report phase -- 2E + N messages in total for a cycle with E traversed
inter-site references and N participating sites.

The calls (and immediate replies) a single engine activation fans out to
one destination ship as a :class:`BackCallBatch` / :class:`BackReplyBatch`:
one physical message whose ``size_units`` still charges every logical call,
so bandwidth accounting and the 2E bound on *logical* steps are unchanged.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import FrozenSet, Tuple

from ...ids import FrameId, ObjectId, SiteId, TraceId
from ...net.message import Payload


class TraceOutcome(enum.Enum):
    """Verdict of a back step or of a whole back trace."""

    LIVE = "live"
    GARBAGE = "garbage"

    @property
    def is_live(self) -> bool:
        return self is TraceOutcome.LIVE

    @property
    def is_garbage(self) -> bool:
        return self is TraceOutcome.GARBAGE


@dataclass(frozen=True, slots=True)
class BackCall(Payload):
    """Remote step: ask a source site to back-step its outref for ``target``.

    Sent by the site holding inref ``target`` to one of the sites in the
    inref's source list.  ``reply_to`` names the activation frame awaiting
    the response.
    """

    trace_id: TraceId
    target: ObjectId
    reply_to: FrameId
    #: Per-engine call sequence number.  Duplicate-delivery suppression keys
    #: on ``(trace_id, reply_to, seq)``: a replayed call must not re-run the
    #: local step (the visited mark added by the first delivery would make
    #: the replay answer a spurious Garbage).  -1 = unstamped (legacy).
    seq: int = -1


@dataclass(frozen=True, slots=True)
class BackReply(Payload):
    """Response to a :class:`BackCall`.

    Carries the verdict of the subtree explored on behalf of the call and the
    set of sites that participated in it (each participant appends its id, so
    the initiator learns whom to report the outcome to).
    """

    trace_id: TraceId
    reply_to: FrameId
    verdict: TraceOutcome
    participants: FrozenSet[SiteId]
    # True when the subtree's verdict leaned on a conservative timeout
    # (section 4.6's assumed Live).  Propagated to the initiator so it can
    # back off before re-initiating from the same root.
    timed_out: bool = False


@dataclass(frozen=True, slots=True)
class BackOutcome(Payload):
    """Report phase: the initiator tells each participant the final verdict."""

    trace_id: TraceId
    verdict: TraceOutcome


@dataclass(frozen=True, slots=True)
class BackCallBatch(Payload):
    """Several :class:`BackCall`\\ s to one destination in one physical message.

    Calls may belong to different traces (one engine activation can touch
    several -- e.g. coalesced waiters re-dispatched by a finishing trace);
    the receiver simply handles each call in order.
    """

    calls: Tuple[BackCall, ...]

    def size_units(self) -> int:
        return max(1, len(self.calls))


@dataclass(frozen=True, slots=True)
class BackReplyBatch(Payload):
    """Several :class:`BackReply`\\ s to one destination in one physical message."""

    replies: Tuple[BackReply, ...]

    def size_units(self) -> int:
        return max(1, len(self.replies))
