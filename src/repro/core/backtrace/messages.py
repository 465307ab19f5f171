"""Back-trace protocol messages.

Three logical kinds, matching the paper's complexity accounting (section
4.6): one :class:`BackCall` and one :class:`BackReply` per inter-site
reference traversed, plus one :class:`BackOutcome` per participant in the
report phase -- 2E + N messages in total for a cycle with E traversed
inter-site references and N participating sites.  Each is one message on
the network; bundling them is the deferring sender's job
(``GcConfig.defer_messages``).
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import FrozenSet

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
    #: the replay answer a spurious Garbage).
    seq: int


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
