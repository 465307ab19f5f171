"""Activation frames and per-trace records (section 4.4).

A *frame* is created for each back-step call: it remembers who to answer
(a local parent frame or a remote caller), how many inner calls are pending,
which sites already replied, and the accumulated participant set.  Frames are
owned by the site, not by the ioref, so the deletion of an ioref while a
trace is active there never orphans a call -- the fix the paper credits to
Boyapati.  A frame answers for its own trace only: two traces at one ioref
each hold a frame there, and the engine indexes them by ioref so the clean
rule can complete every one of them Live.

A *trace record* is a site's memory of one trace: which iorefs it marked
visited (so the report phase can flag or unflag them) and a liveness timeout
that conservatively assumes a Live outcome if the initiator's report never
arrives (section 4.6).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional, Set, Tuple

from ...ids import FrameId, ObjectId, SiteId, TraceId
from ...sim.scheduler import EventHandle

IorefKey = Tuple[str, ObjectId]
"""('inref'|'outref', target) -- distinguishes the two tables' entries."""

INREF = "inref"
OUTREF = "outref"


@dataclass(slots=True)
class Frame:
    """One pending back-step call at one site."""

    frame_id: FrameId
    trace_id: TraceId
    kind: str
    ioref: ObjectId
    parent_local: Optional[FrameId] = None
    parent_remote: Optional[Tuple[SiteId, FrameId]] = None
    pending: int = 0
    completed: bool = False
    participants: Set[SiteId] = field(default_factory=set)
    timeout: Optional[EventHandle] = None
    # Sites whose BackReply for this frame already arrived: a remote frame
    # sends exactly one call per source site, so a second reply from the
    # same site is a duplicate delivery and must not decrement ``pending``
    # again (that double-decrement could close a branch as Garbage while a
    # real reply -- possibly Live -- is still outstanding: a safety bug).
    replied: Set[SiteId] = field(default_factory=set)
    # True once this frame's verdict leaned on a conservative timeout
    # (its own, or a child subtree's).  Threaded to the initiator so
    # timeout-assumed Lives trigger retry backoff, not instant re-suspicion.
    timed_out: bool = False

    @property
    def key(self) -> IorefKey:
        return (self.kind, self.ioref)

    def cancel_timeout(self) -> None:
        if self.timeout is not None:
            self.timeout.cancel()
            self.timeout = None


@dataclass
class TraceRecord:
    """A site's bookkeeping for one back trace passing through it."""

    trace_id: TraceId
    is_initiator: bool = False
    root_outref: Optional[ObjectId] = None
    visited_inrefs: Set[ObjectId] = field(default_factory=set)
    visited_outrefs: Set[ObjectId] = field(default_factory=set)
    finished: bool = False
    outcome_timeout: Optional[EventHandle] = None
    # (reply_to frame, call seq) of every BackCall of this trace handled
    # here: duplicate deliveries are dropped before they can re-step.
    seen_calls: Set[Tuple[FrameId, int]] = field(default_factory=set)

    def cancel_timeout(self) -> None:
        if self.outcome_timeout is not None:
            self.outcome_timeout.cancel()
            self.outcome_timeout = None
