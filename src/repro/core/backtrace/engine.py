"""The back-trace engine: one instance per site.

Implements the mutually recursive ``BackStepRemote`` / ``BackStepLocal``
procedures of section 4.4 as an asynchronous, frame-based protocol:

- a **local step** (``_step_local``) inspects this site's outref for a
  reference and forks remote steps to every inref in its inset;
- a **remote step** (``_step_remote``) inspects an inref and sends a
  :class:`BackCall` to every site in its source list;
- calls inside both for-loops run in parallel, as the paper notes; a branch
  returning Live short-circuits its parent immediately.

Verdict rules implemented verbatim from the pseudocode: missing ioref ->
Garbage, clean ioref -> Live, already visited by this trace -> Garbage,
otherwise mark visited and fan out.  Additionally an inref already *flagged*
garbage answers Garbage directly (it was confirmed by a completed trace and
is merely awaiting deletion).  Each step applies the rules to its own
trace's visited marks: traces meeting at one ioref walk on independently, as
section 4.7 allows.

What stops a live suspect from being re-traced over and over is the paper's
own guard: every visit bumps the ioref's back threshold (section 4.3), so a
suspect found Live crosses its threshold again only once its distance has
grown past the bump.

On top of the pseudocode this engine layers one cost shortcut, conservative
(it can only delay collection, never collect live data):

- **local answers first**: an outref's inset is stepped clean inrefs
  first, so a Live answer available at this site completes the frame
  before a BackCall leaves for a suspected sibling.

Every BackCall and BackReply is sent as the engine decides it; bundling
small control messages is :class:`~repro.net.batching.DeferringSender`'s
job (``GcConfig.defer_messages``).

The engine also owns: per-site trace records, the report phase, the clean
rule hook (:meth:`notify_cleaned`), visit-time back-threshold bumps
(section 4.3), and the two conservative timeouts of section 4.6.
"""

from __future__ import annotations

from typing import Callable, Dict, Optional, Set, Tuple

from ...config import GcConfig
from ...errors import BackTraceError
from ...gc.inrefs import InrefTable
from ...gc.outrefs import OutrefTable
from ...ids import FrameId, ObjectId, SiteId, TraceId
from ...metrics import MetricsRecorder, names
from ...net.message import Payload
from ...sim.scheduler import Scheduler
from .frames import INREF, OUTREF, Frame, IorefKey, TraceRecord
from .messages import BackCall, BackOutcome, BackReply, TraceOutcome

SendFn = Callable[[SiteId, Payload], None]
OutcomeCallback = Callable[[TraceId, TraceOutcome], None]
AppliedCallback = Callable[[TraceId, TraceOutcome, int], None]


class BackTraceEngine:
    """Runs the back-trace protocol on behalf of one site."""

    def __init__(
        self,
        site_id: SiteId,
        inrefs: InrefTable,
        outrefs: OutrefTable,
        config: GcConfig,
        scheduler: Scheduler,
        send: SendFn,
        metrics: Optional[MetricsRecorder] = None,
        on_outcome: Optional[OutcomeCallback] = None,
        on_outcome_applied: Optional[AppliedCallback] = None,
    ):
        self.site_id = site_id
        self.inrefs = inrefs
        self.outrefs = outrefs
        self.config = config
        self.scheduler = scheduler
        self.send = send
        self.metrics = metrics or MetricsRecorder()
        self.on_outcome = on_outcome
        self.on_outcome_applied = on_outcome_applied
        self._frames: Dict[FrameId, Frame] = {}
        self._active_by_ioref: Dict[IorefKey, Set[FrameId]] = {}
        self._frames_by_trace: Dict[TraceId, Set[FrameId]] = {}
        self._records: Dict[TraceId, TraceRecord] = {}
        self._active_roots: Dict[ObjectId, TraceId] = {}
        self._next_trace_seq = 0
        self._next_frame_seq = 0
        self._next_call_seq = 0
        # Traces already finished here -> expiry of the memory (2x the
        # back-trace timeout, after which nothing legitimate can still be in
        # flight).  Late/duplicate calls and outcomes for them are dropped
        # instead of resurrecting a record and re-stepping junk.
        self._finished_traces: Dict[TraceId, float] = {}
        # Initiator-side exponential backoff for timeout-assumed-Live roots:
        # root outref -> (consecutive timeout count, earliest re-initiation).
        self._retry_state: Dict[ObjectId, Tuple[int, float]] = {}

    # -- public API -------------------------------------------------------------

    def start_trace(self, outref_target: ObjectId) -> Optional[TraceId]:
        """Begin a back trace from a suspected outref of this site.

        Returns the trace id, or None if a trace initiated from this outref
        is still in flight (re-initiating would only duplicate work).
        """
        if outref_target in self._active_roots:
            return None
        if outref_target not in self.outrefs or self.outrefs.is_clean(outref_target):
            self._retry_state.pop(outref_target, None)
            return None
        state = self._retry_state.get(outref_target)
        if state is not None and self.scheduler.now < state[1]:
            # The last trace from this root was assumed Live only because of
            # a timeout; retrying immediately would usually hit the same
            # fault.  Wait out the (exponential, capped) backoff.
            self.metrics.incr(names.BACKTRACE_RETRY_SUPPRESSED)
            return None
        trace_id = TraceId(initiator=self.site_id, seq=self._next_trace_seq)
        self._next_trace_seq += 1
        record = self._ensure_record(trace_id)
        record.is_initiator = True
        record.root_outref = outref_target
        self._active_roots[outref_target] = trace_id
        self.metrics.incr("backtrace.started")
        self._step_local(trace_id, outref_target, parent_local=None, parent_remote=None)
        return trace_id

    @property
    def active_trace_count(self) -> int:
        return sum(1 for record in self._records.values() if not record.finished)

    def handle_back_call(self, src: SiteId, payload: BackCall) -> None:
        """A remote site asks us to back-step our outref for ``payload.target``."""
        expiry = self._finished_traces.get(payload.trace_id)
        if expiry is not None:
            if self.scheduler.now < expiry:
                # The trace already finished here; a late (or duplicated)
                # call must not resurrect its record and re-step.
                self.metrics.incr("backtrace.stale_calls")
                return
            del self._finished_traces[payload.trace_id]
        record = self._ensure_record(payload.trace_id)
        key = (payload.reply_to, payload.seq)
        if key in record.seen_calls:
            # Duplicate delivery: the first copy already added a visited
            # mark, so re-stepping would answer a spurious Garbage.
            self.metrics.incr(names.dup_suppressed("BackCall"))
            return
        record.seen_calls.add(key)
        self._step_local(
            payload.trace_id,
            payload.target,
            parent_local=None,
            parent_remote=(src, payload.reply_to),
        )

    def handle_back_reply(self, src: SiteId, payload: BackReply) -> None:
        """A response for one of our pending remote calls arrived."""
        frame = self._frames.get(payload.reply_to)
        if frame is None or frame.completed or frame.trace_id != payload.trace_id:
            # Late reply to a frame already completed (short-circuited Live,
            # timed out, or force-completed by the clean rule): ignore.
            self.metrics.incr("backtrace.stale_replies")
            return
        if src in frame.replied:
            # Duplicate delivery.  A frame sends exactly one call per source
            # site, so a second reply from the same site must not decrement
            # ``pending`` again -- that double-decrement could close the
            # branch as Garbage while a real (possibly Live) reply is still
            # outstanding, which is a safety violation.
            self.metrics.incr(names.dup_suppressed("BackReply"))
            return
        frame.replied.add(src)
        self._child_done(
            frame,
            payload.verdict,
            set(payload.participants),
            timed_out=payload.timed_out,
        )

    def handle_back_outcome(self, src: SiteId, payload: BackOutcome) -> None:
        """Report phase: the initiator announced the final verdict."""
        if (
            payload.trace_id in self._finished_traces
            and payload.trace_id not in self._records
        ):
            # Already applied here: a duplicated outcome is a no-op.
            self.metrics.incr(names.dup_suppressed("BackOutcome"))
            return
        self._apply_outcome(payload.trace_id, payload.verdict)

    def notify_cleaned(self, kind: str, target: ObjectId) -> None:
        """Clean rule (section 6.4): an ioref was cleaned; any trace active
        there must return Live."""
        for frame_id in list(self._active_by_ioref.get((kind, target), ())):
            frame = self._frames.get(frame_id)
            if frame is None or frame.completed:
                continue
            self.metrics.incr("backtrace.clean_rule_hits")
            self._complete(frame, TraceOutcome.LIVE)

    # Nothing calls these: the ledger's tracer binds both names, and they go
    # with its next refresh (ROADMAP 3(a)).
    handle_back_call_batch = handle_back_call
    handle_back_reply_batch = handle_back_reply

    # -- record management ----------------------------------------------------------

    def _ensure_record(self, trace_id: TraceId) -> TraceRecord:
        record = self._records.get(trace_id)
        if record is None:
            record = TraceRecord(trace_id=trace_id)
            self._records[trace_id] = record
        self._refresh_outcome_timeout(record)
        return record

    def _refresh_outcome_timeout(self, record: TraceRecord) -> None:
        """(Re)arm the conservative 'assume Live if no outcome' timer."""
        record.cancel_timeout()
        trace_id = record.trace_id
        record.outcome_timeout = self.scheduler.schedule(
            2 * self.config.backtrace_timeout,
            lambda: self._outcome_timed_out(trace_id),
            label=f"outcome-timeout:{trace_id}",
            site=self.site_id,
        )

    def _outcome_timed_out(self, trace_id: TraceId) -> None:
        record = self._records.get(trace_id)
        if record is None or record.finished:
            return
        self.metrics.incr("backtrace.outcome_timeouts")
        self._apply_outcome(trace_id, TraceOutcome.LIVE)

    # -- the two step kinds ------------------------------------------------------------

    def _step_local(
        self,
        trace_id: TraceId,
        target: ObjectId,
        parent_local: Optional[FrameId],
        parent_remote: Optional[Tuple[SiteId, FrameId]],
    ) -> None:
        """BackStepLocal: examine this site's outref for ``target``."""
        outrefs = self.outrefs
        if target not in outrefs:
            self._answer(trace_id, parent_local, parent_remote, TraceOutcome.GARBAGE)
            return
        if outrefs.is_clean(target):
            self._answer(trace_id, parent_local, parent_remote, TraceOutcome.LIVE)
            return
        if outrefs.has_visited(target, trace_id):
            self._answer(trace_id, parent_local, parent_remote, TraceOutcome.GARBAGE)
            return
        record = self._ensure_record(trace_id)
        outrefs.visit(target, trace_id, self.config.back_threshold_increment)
        record.visited_outrefs.add(target)
        self.metrics.incr("backtrace.iorefs_visited")

        frame = self._new_frame(trace_id, OUTREF, target, parent_local, parent_remote)
        # Section 4.4 runs the remote steps in parallel; take the local
        # answers first.  A clean inref completes the frame Live, and the
        # ``completed`` check below then stops the fan-out before any BackCall
        # leaves for a suspected sibling.
        is_clean = self.inrefs.is_clean
        inset = sorted(outrefs.get(target).inset, key=lambda t: (not is_clean(t), t))
        frame.pending = len(inset)
        if frame.pending == 0:
            # No suspected inref reaches this outref: nothing backward of it,
            # so this branch closes as Garbage.
            self._complete(frame, TraceOutcome.GARBAGE)
            return
        self._arm_frame_timeout(frame)
        for inref_target in inset:
            if frame.completed:
                break
            self._step_remote(trace_id, inref_target, parent_local=frame.frame_id)

    def _step_remote(
        self, trace_id: TraceId, target: ObjectId, parent_local: FrameId
    ) -> None:
        """BackStepRemote: examine this site's inref for ``target``."""
        inrefs = self.inrefs
        entry = inrefs.get(target)
        if entry is None or entry.garbage:
            self._answer(trace_id, parent_local, None, TraceOutcome.GARBAGE)
            return
        if inrefs.is_clean(target):
            self._answer(trace_id, parent_local, None, TraceOutcome.LIVE)
            return
        if inrefs.has_visited(target, trace_id):
            self._answer(trace_id, parent_local, None, TraceOutcome.GARBAGE)
            return
        record = self._ensure_record(trace_id)
        inrefs.visit(target, trace_id, self.config.back_threshold_increment)
        record.visited_inrefs.add(target)
        self.metrics.incr("backtrace.iorefs_visited")

        frame = self._new_frame(trace_id, INREF, target, parent_local, None)
        sources = sorted(entry.sources)
        frame.pending = len(sources)
        if frame.pending == 0:
            self._complete(frame, TraceOutcome.GARBAGE)
            return
        self._arm_frame_timeout(frame)
        for source in sources:
            seq = self._next_call_seq
            self._next_call_seq += 1
            self.send(
                source,
                BackCall(
                    trace_id=trace_id,
                    target=target,
                    reply_to=frame.frame_id,
                    seq=seq,
                ),
            )

    # -- frame lifecycle --------------------------------------------------------------

    def _new_frame(
        self,
        trace_id: TraceId,
        kind: str,
        ioref: ObjectId,
        parent_local: Optional[FrameId],
        parent_remote: Optional[Tuple[SiteId, FrameId]],
    ) -> Frame:
        frame_id = FrameId(site=self.site_id, seq=self._next_frame_seq)
        self._next_frame_seq += 1
        frame = Frame(
            frame_id=frame_id,
            trace_id=trace_id,
            kind=kind,
            ioref=ioref,
            parent_local=parent_local,
            parent_remote=parent_remote,
        )
        self._frames[frame_id] = frame
        self._active_by_ioref.setdefault(frame.key, set()).add(frame_id)
        self._frames_by_trace.setdefault(trace_id, set()).add(frame_id)
        return frame

    def _discard_frame(self, frame: Frame) -> None:
        """Drop a frame from every index (it must already be completed)."""
        active = self._active_by_ioref.get(frame.key)
        if active is not None:
            active.discard(frame.frame_id)
            if not active:
                del self._active_by_ioref[frame.key]
        by_trace = self._frames_by_trace.get(frame.trace_id)
        if by_trace is not None:
            by_trace.discard(frame.frame_id)
            if not by_trace:
                del self._frames_by_trace[frame.trace_id]
        self._frames.pop(frame.frame_id, None)

    def _arm_frame_timeout(self, frame: Frame) -> None:
        frame_id = frame.frame_id
        frame.timeout = self.scheduler.schedule(
            self.config.backtrace_timeout,
            lambda: self._frame_timed_out(frame_id),
            label=f"frame-timeout:{frame_id}",
            site=self.site_id,
        )

    def _frame_timed_out(self, frame_id: FrameId) -> None:
        frame = self._frames.get(frame_id)
        if frame is None or frame.completed:
            return
        # Section 4.6: a site waiting for a response that never comes can
        # safely assume the call returned Live.  The assumption rests on no
        # evidence, so it is flagged (retry backoff at the initiator).
        self.metrics.incr("backtrace.frame_timeouts")
        frame.timed_out = True
        self._complete(frame, TraceOutcome.LIVE)

    def _child_done(
        self,
        frame: Frame,
        verdict: TraceOutcome,
        participants: Set[SiteId],
        timed_out: bool = False,
    ) -> None:
        if frame.completed:
            return
        frame.participants.update(participants)
        if timed_out:
            frame.timed_out = True
        if verdict.is_live:
            self._complete(frame, TraceOutcome.LIVE)
            return
        frame.pending -= 1
        if frame.pending <= 0:
            self._complete(frame, TraceOutcome.GARBAGE)

    def _complete(self, frame: Frame, verdict: TraceOutcome) -> None:
        if frame.completed:
            return
        frame.completed = True
        frame.cancel_timeout()
        self._discard_frame(frame)
        participants = set(frame.participants)
        participants.add(self.site_id)
        self._answer(
            frame.trace_id,
            frame.parent_local,
            frame.parent_remote,
            verdict,
            participants,
            timed_out=frame.timed_out,
        )

    def _answer(
        self,
        trace_id: TraceId,
        parent_local: Optional[FrameId],
        parent_remote: Optional[Tuple[SiteId, FrameId]],
        verdict: TraceOutcome,
        participants: Optional[Set[SiteId]] = None,
        timed_out: bool = False,
    ) -> None:
        """Deliver a verdict to whoever asked: the local parent frame, the
        remote caller, or, at the root, the report phase.  A frameless
        (immediate) answer names this site alone as participant."""
        if participants is None:
            participants = {self.site_id}
        if parent_local is not None:
            parent = self._frames.get(parent_local)
            if parent is not None and not parent.completed:
                self._child_done(parent, verdict, participants, timed_out=timed_out)
        elif parent_remote is not None:
            caller_site, caller_frame = parent_remote
            self.send(
                caller_site,
                BackReply(
                    trace_id=trace_id,
                    reply_to=caller_frame,
                    verdict=verdict,
                    participants=frozenset(participants),
                    timed_out=timed_out,
                ),
            )
        else:
            # The root step itself resolved (for a frameless answer, e.g. the
            # outref turned clean before the trace began).
            self._finish_trace(trace_id, verdict, participants, timed_out=timed_out)

    # -- outcome ------------------------------------------------------------------------

    def _finish_trace(
        self,
        trace_id: TraceId,
        verdict: TraceOutcome,
        participants: Set[SiteId],
        timed_out: bool = False,
    ) -> None:
        """Report phase, run at the initiator (section 4.5)."""
        if trace_id.initiator != self.site_id:
            raise BackTraceError(f"{self.site_id} finishing foreign trace {trace_id}")
        if verdict.is_garbage:
            self.metrics.incr("backtrace.completed_garbage")
        else:
            self.metrics.incr("backtrace.completed_live")
        self._note_retry(trace_id, verdict, timed_out)
        for participant in sorted(participants):
            if participant != self.site_id:
                self.send(participant, BackOutcome(trace_id=trace_id, verdict=verdict))
        self._apply_outcome(trace_id, verdict)

    def _note_retry(
        self, trace_id: TraceId, verdict: TraceOutcome, timed_out: bool
    ) -> None:
        """Arm (timeout-assumed Live) or clear (grounded verdict) retry backoff.

        A Live that leaned on a conservative timeout (section 4.6) carries no
        evidence: re-initiating at the fixed suspicion cadence would hammer a
        partitioned or crashed site.  Each consecutive timeout doubles the
        wait before the same root may start a new trace, from
        ``backtrace_timeout`` up to eight times that; any grounded verdict
        resets the ladder.
        """
        record = self._records.get(trace_id)
        root = record.root_outref if record is not None else None
        if root is None:
            return
        if verdict.is_live and timed_out:
            attempts = self._retry_state.get(root, (0, 0.0))[0] + 1
            base = self.config.backtrace_timeout
            delay = min(base * (2 ** (attempts - 1)), 8.0 * base)
            self._retry_state[root] = (attempts, self.scheduler.now + delay)
            self.metrics.incr(names.BACKTRACE_COMPLETED_TIMEOUT_LIVE)
            self.metrics.incr(names.BACKTRACE_RETRIES_BACKED_OFF)
        else:
            self._retry_state.pop(root, None)

    def _apply_outcome(self, trace_id: TraceId, verdict: TraceOutcome) -> None:
        """Flag (Garbage) or unmark (Live) the iorefs this trace visited here."""
        record = self._records.pop(trace_id, None)
        if record is None:
            return
        record.finished = True
        record.cancel_timeout()
        # Remember the trace long enough to recognize replayed or straggling
        # messages for it (duplicate suppression in the handlers above); the
        # 2x outcome-timeout horizon outlives any in-flight copy.
        self._finished_traces[trace_id] = self.scheduler.now + (
            2.0 * self.config.backtrace_timeout
        )
        if len(self._finished_traces) > 512:
            now = self.scheduler.now
            self._finished_traces = {
                tid: exp for tid, exp in self._finished_traces.items() if exp > now
            }
        if record.root_outref is not None:
            self._active_roots.pop(record.root_outref, None)
        inrefs = self.inrefs
        for target in record.visited_inrefs:
            inrefs.unvisit(target, trace_id)
            if verdict.is_garbage and target in inrefs and inrefs.set_garbage(target):
                self.metrics.incr("backtrace.inrefs_flagged")
        for target in record.visited_outrefs:
            self.outrefs.unvisit(target, trace_id)
        # Abort any frames of this trace still pending at this site: the
        # trace is over; answering anything further is pointless.  Late
        # messages for them are dropped as stale.
        for frame_id in list(self._frames_by_trace.get(trace_id, ())):
            frame = self._frames.get(frame_id)
            if frame is None:
                continue
            frame.completed = True
            frame.cancel_timeout()
            self._discard_frame(frame)
        if self.on_outcome_applied is not None:
            visited_here = len(record.visited_inrefs) + len(record.visited_outrefs)
            self.on_outcome_applied(trace_id, verdict, visited_here)
        if self.on_outcome is not None and record.is_initiator:
            self.on_outcome(trace_id, verdict)
