"""One site of the distributed object store.

A :class:`Site` wires together a heap, the inref/outref tables, the local
collector, the distributed cycle-collection strategy
(:class:`repro.core.collector.Collector` -- the back tracer by default),
the transfer barrier, and the message handlers for every protocol in the
system.  It also owns the site-local policies the paper describes:

- periodic local traces with jitter (section 4.7 relies on the resulting
  timing spread to make concurrent back traces on one cycle unlikely);
- the suspicion-trigger check after each local trace (section 4.3),
  delegated to the cycle-collector strategy;
- the insert barrier on every outgoing reference transfer (section 6.1.2);
- the at-least-once update channel (section 4.6 hardening): per peer, the
  receiver keeps one anchor (the last update applied in order) and acks it
  cumulatively, and the sender keeps one retransmission timer;
- deferral of mutator heap writes while a non-atomic local trace is
  in progress (section 6.2) -- incoming *messages* are still handled
  immediately against the old copy of the back information.
"""

from __future__ import annotations

from typing import Callable, Dict, List, NamedTuple, Optional, Set, Tuple

from ..config import GcConfig
from ..errors import GcInvariantError, HeapError
from ..core.backtrace.messages import (
    BackCall,
    BackOutcome,
    BackReply,
    TraceOutcome,
)
from ..core.barriers import TransferBarrier
from ..core.collector import Collector, collector_class
from ..gc.insert import InsertDone, InsertRequest, UnpinRequest
from ..gc.inrefs import InrefTable
from ..gc.localtrace import LocalCollector, LocalTraceResult
from ..gc.outrefs import OutrefTable
from ..gc.update import (
    UpdateAck,
    UpdateDeltaPayload,
    UpdatePayload,
    UpdateRefreshRequest,
    apply_update,
    apply_update_delta,
)
from ..ids import ObjectId, SiteId, TraceId
from ..metrics import MetricsRecorder, names
from ..mutator.ops import MutatorHop, RemoteCopy
from ..net.message import Message, Payload
from ..net.network import Network
from ..net.reliability import DedupWindow
from ..sim.scheduler import EventHandle, Scheduler
from ..store.heap import Heap

HopCallback = Callable[[str, ObjectId], None]
OutcomeCallback = Callable[[SiteId, TraceId, TraceOutcome], None]

#: The update channel's retransmission timeout: an update left unacked this
#: long is replaced by a fresh full update.  It doubles per consecutive
#: retransmission (capped at 8x), and after ``UPDATE_RETRANSMIT_LIMIT`` of
#: them the sender gives up and marks the peer desynced; the next GC tick
#: starts the repair over (section 4.6 hardening).
UPDATE_RETRANSMIT_TIMEOUT = 40.0
UPDATE_RETRANSMIT_LIMIT = 5


class SiteAudit(NamedTuple):
    """One site's share of :meth:`Simulation.audit_state`, a fresh copy:
    every resident object's reference slots; the roots (persistent and
    variable roots, variable-held outrefs, and the references parked in
    deferred writes); the inref targets flagged garbage; and the update
    channel's ends, per peer the receiver's anchor (sender -> seq of the
    last update applied in order) and the sender's last seq (receiver ->
    seq of the last update sent), plus the receivers the sender still
    repairs: those with a running retransmission timer and those marked
    desynced for the next GC tick."""

    objects: Dict[ObjectId, Tuple[ObjectId, ...]]
    roots: Set[ObjectId]
    garbage_inrefs: Set[ObjectId]
    update_anchors: Dict[SiteId, int]
    update_seqs: Dict[SiteId, int]
    update_timers: Set[SiteId]
    desynced_peers: Set[SiteId]


#: Mutation-protocol payloads stamped with a per-(sender, receiver) sequence
#: number by :meth:`Site.send` and deduplicated by :meth:`Site.receive`.  A
#: replayed delivery of any of these is *not* idempotent on its own: inserts
#: re-run the transfer barrier and double-release pins, remote copies
#: double-store references, hops fork phantom mutators.  Like everything
#: :meth:`Site.send` may stamp, each has a ``seq`` field and ``with_seq()``.
_SEQUENCED_MUTATIONS = (InsertRequest, InsertDone, UnpinRequest, RemoteCopy, MutatorHop)


class Site:
    """A single site: object store, collectors, and protocol handlers."""

    def __init__(
        self,
        site_id: SiteId,
        scheduler: Scheduler,
        network: Network,
        config: GcConfig,
        metrics: Optional[MetricsRecorder] = None,
        jitter_rng=None,
        auto_gc: bool = True,
        on_mutator_hop: Optional[HopCallback] = None,
        on_trace_outcome: Optional[OutcomeCallback] = None,
        collector_factory: Optional[Callable[["Site"], Collector]] = None,
    ):
        self.site_id = site_id
        self.scheduler = scheduler
        self.network = network
        self.config = config
        self.metrics = metrics or MetricsRecorder()
        self._jitter_rng = jitter_rng
        self.on_mutator_hop = on_mutator_hop
        self.on_trace_outcome = on_trace_outcome

        self.heap = Heap(site_id)
        self.inrefs = InrefTable(
            site_id,
            suspicion_threshold=config.suspicion_threshold,
            initial_back_threshold=config.initial_back_threshold,
        )
        self.outrefs = OutrefTable(
            site_id, initial_back_threshold=config.initial_back_threshold
        )
        self.collector = LocalCollector(
            self.heap, self.inrefs, self.outrefs, config, metrics=self.metrics
        )
        # The distributed cycle-collection strategy named by
        # GcConfig.collector, unless a test injects its own factory.
        if collector_factory is None:
            collector_factory = collector_class(config.collector)
        self.cycle_collector: Collector = collector_factory(self)
        self.barrier = TransferBarrier(
            self.inrefs,
            self.outrefs,
            engine=getattr(self.cycle_collector, "engine", None),
            metrics=self.metrics,
            enabled=config.enable_transfer_barrier,
        )
        self.tuner = None
        if config.enable_threshold_tuning:
            from ..core.tuning import ThresholdTuner

            self.tuner = ThresholdTuner(
                self.inrefs,
                outrefs=self.outrefs,
                assumed_cycle_length=config.assumed_cycle_length,
                metrics=self.metrics,
            )

        self._sender = None
        if config.defer_messages:
            from ..net.batching import DeferringSender

            self._sender = DeferringSender(
                site_id,
                scheduler,
                raw_send=self._raw_send,
                deferrable=(
                    BackCall,
                    BackReply,
                    BackOutcome,
                    UpdatePayload,
                    UpdateDeltaPayload,
                    UpdateRefreshRequest,
                    UpdateAck,
                    InsertRequest,
                    InsertDone,
                    UnpinRequest,
                ),
                delay=config.defer_delay,
                metrics=self.metrics,
            )

        self.crashed = False
        self._tracing = False
        # Objects of ours pinned while a message carrying their reference is
        # in flight (the insert barrier, applied to the owner's own sends).
        self._send_pins: Dict[ObjectId, int] = {}
        # Deferred heap writes: ("add"|"remove", holder, target) tuples kept
        # inspectable so the omniscient oracle can treat references parked in
        # a pending add as roots.
        self._pending_writes: List[tuple] = []
        self._variable_outrefs: Dict[ObjectId, int] = {}
        self._gc_timer = None
        # At-least-once protocol state (section 4.6 hardening): per-peer
        # sequence counters for outgoing traffic, per-peer dedup windows for
        # incoming mutations, and per peer the one update retransmission
        # timer, running while the last update sent is unacked.
        self._mutation_seq: Dict[SiteId, int] = {}
        self._update_seq: Dict[SiteId, int] = {}
        self._update_timers: Dict[SiteId, EventHandle] = {}
        self._mutation_dedup: Dict[SiteId, DedupWindow] = {}
        # Peers whose retransmission chain was abandoned: their view of our
        # outref distances may be arbitrarily stale, which can freeze distance
        # propagation system-wide (each side waits for the other to change).
        # The next GC tick pushes them a fresh full update -- even a tick
        # whose local trace is skipped by the incremental planner.
        self._desynced_peers: Set[SiteId] = set()
        # The whole receive side of the update channel: per peer, the
        # sequence number of the last update applied in order.  A delta
        # applies only exactly one past it, a full update anywhere past it;
        # anything at or below it is a duplicate.  Acks carry it.
        self._update_anchor: Dict[SiteId, int] = {}
        self._handlers = {
            UpdatePayload: self._on_update,
            UpdateDeltaPayload: self._on_update_delta,
            UpdateRefreshRequest: self._on_update_refresh_request,
            UpdateAck: self._on_update_ack,
            InsertRequest: self._on_insert_request,
            InsertDone: self._on_insert_done,
            UnpinRequest: self._on_unpin,
            MutatorHop: self._on_mutator_hop,
            RemoteCopy: self._on_remote_copy,
        }
        self._handlers.update(self.cycle_collector.handlers())
        # Payloads needing seq stamping/dedup: the base mutation protocol
        # plus whatever the cycle collector declares (e.g. credit-carrying
        # termination messages, whose redelivery is not idempotent).
        self._sequenced = _SEQUENCED_MUTATIONS + tuple(
            self.cycle_collector.sequenced_payload_types()
        )
        for payload_type in self._sequenced:
            if not callable(getattr(payload_type, "with_seq", None)):
                raise TypeError(
                    f"sequenced payload {payload_type.__name__} has no with_seq()"
                )
        # Per-concrete-payload-type dispatch table: (handler, is_sequenced,
        # is_bundle), resolved lazily by one real isinstance walk per type,
        # then reused for every send/receive of that type.  Cleared whenever
        # the handler set changes.
        self._dispatch: Dict[type, Tuple[Optional[Callable], bool, bool]] = {}
        if auto_gc:
            self.schedule_next_trace()

    # -- messaging ---------------------------------------------------------------

    def _resolve_dispatch(
        self, payload_type: type
    ) -> Tuple[Optional[Callable], bool, bool]:
        """Classify one concrete payload type for send/receive dispatch.

        Handler lookup is by exact type (the historical contract); the
        sequenced/bundle flags use subclass semantics, matching what the
        per-message ``isinstance`` checks used to decide.
        """
        from ..net.batching import Bundle

        entry = (
            self._handlers.get(payload_type),
            issubclass(payload_type, self._sequenced),
            issubclass(payload_type, Bundle),
        )
        self._dispatch[payload_type] = entry
        return entry

    def send(self, dst: SiteId, payload: Payload) -> None:
        if self.crashed:
            return
        entry = self._dispatch.get(payload.__class__)
        if entry is None:
            entry = self._resolve_dispatch(payload.__class__)
        if entry[1] and payload.seq < 0:
            seq = self._mutation_seq.get(dst, 0) + 1
            self._mutation_seq[dst] = seq
            payload = payload.with_seq(seq)
        if self._sender is not None:
            self._sender.send(dst, payload)
        else:
            self.network.send(self.site_id, dst, payload)

    def _raw_send(self, dst: SiteId, payload: Payload) -> None:
        if not self.crashed:
            self.network.send(self.site_id, dst, payload)

    def receive(self, message: Message) -> None:
        """Network delivery entry point."""
        if self.crashed:
            return
        payload = message.payload
        entry = self._dispatch.get(payload.__class__)
        if entry is None:
            entry = self._resolve_dispatch(payload.__class__)
        handler, is_sequenced, is_bundle = entry
        if is_bundle:
            for inner in payload.payloads:
                self.receive(Message(message.src, message.dst, inner))
            return
        if is_sequenced and payload.seq > 0:
            window = self._mutation_dedup.setdefault(message.src, DedupWindow())
            if window.seen(payload.seq):
                self.metrics.incr(names.dup_suppressed(message.kind))
                return
        if handler is None:
            raise TypeError(f"site {self.site_id}: no handler for {message.kind}")
        handler(message)

    def register_handler(self, payload_type, handler) -> None:
        """Extension point used by the baseline collectors."""
        self._handlers[payload_type] = handler
        # Any cached classification of this type (including a cached "no
        # handler") is now stale.
        self._dispatch.clear()

    @property
    def engine(self):
        """The back-trace engine, when the active backend has one.

        Kept as a compatibility accessor for the large body of tests,
        examples, and the trace-log recorder that predate the strategy
        boundary.  Raises :class:`AttributeError` under backends without an
        engine so ``hasattr`` probes keep working.
        """
        engine = getattr(self.cycle_collector, "engine", None)
        if engine is None:
            raise AttributeError(
                f"site {self.site_id}: collector "
                f"{self.cycle_collector.name!r} has no back-trace engine"
            )
        return engine

    # -- crash / recovery ------------------------------------------------------------

    def crash(self) -> None:
        """Stop processing; in-flight and future messages to us are lost."""
        self.crashed = True
        self.network.crash(self.site_id)

    def recover(self) -> None:
        self.crashed = False
        self.network.recover(self.site_id)
        self.cycle_collector.on_recover()
        self.schedule_next_trace()

    # -- local tracing ------------------------------------------------------------------

    def stop_auto_gc(self) -> None:
        """Cancel the periodic local-trace timer (manual control resumes)."""
        if self._gc_timer is not None:
            self._gc_timer.cancel()
            self._gc_timer = None

    def schedule_next_trace(self) -> None:
        if self._gc_timer is not None:
            self._gc_timer.cancel()
        jitter = 0.0
        if self._jitter_rng is not None and self.config.local_trace_period_jitter:
            jitter = self._jitter_rng.uniform(
                0.0, self.config.local_trace_period_jitter
            )
        delay = self.config.local_trace_period + jitter
        self._gc_timer = self.scheduler.schedule(
            delay, self._gc_tick, label=f"gc-tick:{self.site_id}", site=self.site_id
        )

    def _gc_tick(self) -> None:
        self._gc_timer = None
        if not self.crashed and not self._tracing:
            self.run_local_trace()
        self.schedule_next_trace()

    def run_local_trace(self, force_full: bool = False) -> Optional[LocalTraceResult]:
        """Run one local trace (non-atomic if configured so).

        The collector's planner (:meth:`LocalCollector.plan_trace`) may
        resolve the tick as a **skip** when nothing relevant changed since
        the last committed trace (no recompute, no update messages --
        observationally identical to a redundant full trace).  Otherwise the
        tick runs the one trace, as mode ``"distance"`` when only inref
        distances moved and ``"full"`` otherwise; the two differ only in
        that a distance trace neither resets the skip budget nor counts
        toward the full-refresh cadence.  ``force_full`` bypasses the
        planner (used by tests and oracles that want a guaranteed fresh
        trace).
        """
        if self.crashed or self._tracing:
            return None
        variable_outrefs = set(self._variable_outrefs)
        mode = "full" if force_full else self.collector.plan_trace(variable_outrefs)
        if mode == "skip":
            self.collector.record_skip()
            # A skipped trace sends no updates, so peers that lost our
            # earlier ones must still be repaired here or the system can
            # deadlock with every site skipping and no one resyncing.
            self._flush_desynced_peers()
            # Triggers still run: the previous check may have been capped by
            # max_traces_per_trigger_check, and back thresholds only ratchet
            # when traces actually visit -- eligibility can persist unchanged.
            self.check_backtrace_triggers()
            return None
        result = self.collector.compute(variable_outrefs=variable_outrefs, mode=mode)
        if self.config.local_trace_duration > 0:
            self._tracing = True
            self.barrier.begin_trace_window()
            self.scheduler.schedule(
                self.config.local_trace_duration,
                lambda: self._commit_trace(result),
                label=f"gc-commit:{self.site_id}",
                site=self.site_id,
            )
            return result
        self._finalize_trace(result, replay=())
        return result

    def _commit_trace(self, result: LocalTraceResult) -> None:
        replay = self.barrier.end_trace_window()
        self._tracing = False
        if self.crashed:
            return
        self._finalize_trace(result, replay=replay)
        self._flush_pending_writes()

    def _finalize_trace(self, result: LocalTraceResult, replay) -> None:
        self.collector.commit(result, replay_barrier_inrefs=replay)
        for dst, payload in sorted(result.updates_by_site.items()):
            self._send_update(dst, payload)
        # Only a *full* update this tick repairs a desynced peer; a delta is
        # computed against state the peer may not have.
        self._flush_desynced_peers(
            skip={dst for dst, p in result.updates_by_site.items() if p.full}
        )
        self.check_backtrace_triggers()

    # -- reliable update channel (at-least-once, section 4.6 hardening) ----------------

    def _send_update(self, dst: SiteId, payload: UpdatePayload, attempts: int = 0) -> None:
        """Send one post-trace update, retransmitted until acknowledged.

        The payload is stamped with the next per-destination sequence number.
        A full update (re)arms the peer's retransmission timer: it supersedes
        everything sent before it.  A delta arms the timer only when none is
        running, since the running one already covers it.  ``attempts``
        counts retransmissions already spent on this repair and doubles the
        timeout (capped at 8x).
        """
        seq = self._update_seq.get(dst, 0) + 1
        self._update_seq[dst] = seq
        timer = self._update_timers.get(dst)
        if payload.full or timer is None:
            if timer is not None:
                timer.cancel()
            self._update_timers[dst] = self.scheduler.schedule(
                UPDATE_RETRANSMIT_TIMEOUT * (2 ** min(attempts, 3)),
                self._retransmit_update,
                label=f"update-retransmit:{self.site_id}->{dst}",
                site=self.site_id,
                arg=(dst, attempts),
            )
        self.send(dst, payload.with_seq(seq))

    def _retransmit_update(self, chain: Tuple[SiteId, int]) -> None:
        dst, attempts = chain
        del self._update_timers[dst]
        if self.crashed:
            # Nothing is sent while crashed, and after recovery no timer is
            # left to resend: the next GC tick repairs the peer instead.
            self._desynced_peers.add(dst)
            return
        attempts += 1
        if attempts > UPDATE_RETRANSMIT_LIMIT:
            # Give up on *this chain*: the peer is gone or the partition
            # outlives our patience.  Safe -- a missed update only delays
            # collection -- but the peer is now marked desynced so the next
            # GC tick restarts the repair with a fresh full update (and a
            # fresh retransmission budget).
            self.metrics.incr(names.UPDATE_RETRANSMITS_ABANDONED)
            self._desynced_peers.add(dst)
            return
        self.metrics.incr(names.UPDATE_RETRANSMITS)
        # Resending the original delta would be wrong: newer deltas may have
        # been delivered ahead of the retransmission (FIFO places it *after*
        # them), so its content is folded into a fresh full state transfer.
        self._send_update(dst, self._build_full_update(dst), attempts=attempts)

    def _flush_desynced_peers(self, skip: Optional[Set[SiteId]] = None) -> None:
        """Resend a full update to every peer whose repair chain gave up.

        ``skip`` names destinations this tick already updated through the
        normal trace path (a second full would be redundant traffic).  Peers
        still unreachable will abandon again and re-enter the set, so the
        retry cadence is one chain per GC tick -- bounded, and it stops the
        moment an ack arrives.
        """
        if not self._desynced_peers:
            return
        peers = sorted(self._desynced_peers)
        self._desynced_peers.clear()
        for dst in peers:
            if skip is not None and dst in skip:
                continue
            self._send_update(dst, self._build_full_update(dst))

    def _build_full_update(self, dst: SiteId) -> UpdatePayload:
        """The complete current outref list toward ``dst`` (idempotent).

        Delegates to the collector, which owns the per-destination shipped
        state that every full state transfer must re-base.
        """
        return self.collector.build_full_update(dst)

    @property
    def is_tracing(self) -> bool:
        return self._tracing

    # -- suspicion triggering (section 4.3) -----------------------------------------------

    def check_backtrace_triggers(self) -> List[ObjectId]:
        """Run the cycle collector's suspicion-trigger scan.

        For the default back tracer this starts a back trace from each
        suspected outref past its threshold; other backends start their own
        collection activity.  The historical name is kept -- this is the
        section 4.3 trigger placement, called after every local trace or
        skipped tick.
        """
        return self.cycle_collector.check_triggers()

    def quiet_gc_ticks(self) -> int:
        """Lower bound on upcoming gc ticks that provably send nothing.

        The shard workers' earliest-output-time scan calls this to look
        *through* quiet tick chains: a tick is quiet only if the planner
        would skip it (delegated to
        :meth:`LocalCollector.predict_quiet_ticks`) AND its skip-path side
        channels are inert -- no desynced peer to repair in
        ``_flush_desynced_peers`` and no trigger-eligible suspect (the
        cycle collector's side-effect-free prediction).  Zero whenever in
        doubt; under-prediction costs a window, never correctness.  Both
        predictions are free of side effects, so the O(1) epoch compare goes
        first and the outref-table scan runs only when it answers non-zero.
        """
        if self.crashed or self._tracing or self._desynced_peers:
            return 0
        quiet = self.collector.predict_quiet_ticks(self._variable_outrefs)
        if quiet and not self.cycle_collector.predict_quiet():
            return 0
        return quiet

    def _trace_outcome(self, trace_id: TraceId, verdict: TraceOutcome) -> None:
        if self.on_trace_outcome is not None:
            self.on_trace_outcome(self.site_id, trace_id, verdict)

    def _trace_outcome_applied(
        self, trace_id: TraceId, verdict: TraceOutcome, visited_here: int
    ) -> None:
        # Every participant site observes the verdict of traces that passed
        # through it -- the "suspects found live" signal of section 3.
        if self.tuner is not None and visited_here > 0:
            self.tuner.observe(verdict)

    # -- mutator-facing API --------------------------------------------------------------------
    #
    # These are the operations an application running *at this site* may
    # perform.  Heap writes are deferred while a local trace is computing;
    # table updates and barriers apply immediately (section 6.2).

    def _deferred(self, write: tuple) -> None:
        if self._tracing:
            self._pending_writes.append(write)
        else:
            self._apply_write(write)

    def _apply_write(self, write: tuple) -> None:
        kind, holder, target = write
        if kind == "add":
            self._apply_add_ref(holder, target)
        else:
            self._apply_remove_ref(holder, target)

    def _flush_pending_writes(self) -> None:
        pending, self._pending_writes = self._pending_writes, []
        for write in pending:
            self._apply_write(write)

    def mutator_add_ref(
        self, holder: ObjectId, target: ObjectId, insert_custody_taken: bool = False
    ) -> None:
        """Store ``target`` into local object ``holder`` (local copy).

        Per section 6.1.1, a local copy needs no barrier action at copy time:
        the transfer barrier already fired when the mutator traversed into
        this site.  A remote target normally already has an outref here (the
        mutator read it out of a local object or received it via the
        remote-copy protocol).  The exception is a reference the mutator
        carried here in a variable (section 6.3): materializing it creates a
        brand-new inter-site reference, so the full insert protocol runs --
        a pinned clean outref plus an insert to the owner.  Callers that
        pre-pinned the object at its owner (:meth:`take_insert_custody`) pass
        ``insert_custody_taken=True`` so the owner releases that pin once the
        insert roots the object through the new inref.
        """
        if target.site != self.site_id and target not in self.outrefs:
            self.outrefs.ensure(target, clean=True)
            self.outrefs.pin(target)
            self.metrics.incr("barrier.insert_pins")
            self.send(
                target.site,
                InsertRequest(
                    target=target,
                    pin_holder=self.site_id,
                    release_owner_custody=insert_custody_taken,
                ),
            )
        self._deferred(("add", holder, target))

    def _apply_add_ref(self, holder: ObjectId, target: ObjectId) -> None:
        if not self.heap.contains(holder):
            self.metrics.incr("mutator.writes_to_dead_objects")
            return
        self.heap.add_ref(holder, target)

    def mutator_remove_ref(self, holder: ObjectId, target: ObjectId) -> None:
        """Delete one occurrence of ``target`` from ``holder``.

        Deletions need no barrier (section 6.1: ignoring them preserves
        safety; the next local trace reflects them).
        """
        self._deferred(("remove", holder, target))

    def _apply_remove_ref(self, holder: ObjectId, target: ObjectId) -> None:
        try:
            self.heap.remove_ref(holder, target)
        except HeapError:  # the holder is gone or no longer holds the target
            self.metrics.incr("mutator.writes_to_dead_objects")

    def mutator_send_ref(self, dst: SiteId, ref: ObjectId, dest_holder: ObjectId) -> None:
        """Copy ``ref`` into ``dest_holder`` at site ``dst`` (remote copy).

        Applies the insert barrier: if ``ref`` is remote to us we pin our
        outref until its owner confirms the insert (or the destination tells
        us no insert was needed).  If we own ``ref`` we pin the object itself
        instead -- the destination's insert (or no-insert ack) releases it.
        Either way the object named by ``ref`` cannot be collected while the
        reference is in flight, which is the remote safety invariant of
        section 6.1.2.
        """
        if ref.site == self.site_id:
            self._send_pins[ref] = self._send_pins.get(ref, 0) + 1
            self.heap.pin_variable(ref)
            # Conservatively treat handing out our own object as a transfer
            # touching its inref (it will gain a holder shortly).
            self.cycle_collector.on_reference_arrival(ref)
            self.barrier.on_reference_arrival(ref)
        else:
            self.outrefs.ensure(ref, clean=True)
            self.outrefs.pin(ref)
        pin_holder = self.site_id
        self.metrics.incr("barrier.insert_pins")
        self.send(dst, RemoteCopy(ref=ref, dest_holder=dest_holder, pin_holder=pin_holder))

    def mutator_hop(self, mutator: str, target: ObjectId) -> None:
        """The mutator traverses an inter-site reference to ``target``."""
        self.send(target.site, MutatorHop(mutator=mutator, target=target))

    # -- variables (application roots, section 6.3) ------------------------------------------------

    def take_insert_custody(self, target: ObjectId) -> None:
        """Pin a local object while a materializing insert is in flight.

        Called (through the simulator's application-session abstraction) by a
        mutator about to store a variable-held reference to our object at
        another site; the matching :class:`InsertRequest` with
        ``release_owner_custody`` releases the pin once the new inref exists.
        """
        if target.site != self.site_id:
            raise GcInvariantError(f"custody pin for non-local {target}")
        self._send_pins[target] = self._send_pins.get(target, 0) + 1
        self.heap.pin_variable(target)

    def pin_variable(self, ref: ObjectId) -> None:
        """A mutator variable now holds ``ref``."""
        if ref.site == self.site_id:
            self.heap.pin_variable(ref)
        else:
            self._variable_outrefs[ref] = self._variable_outrefs.get(ref, 0) + 1
            if ref not in self.outrefs:
                self.outrefs.ensure(ref, clean=True)

    def unpin_variable(self, ref: ObjectId) -> None:
        if ref.site == self.site_id:
            self.heap.unpin_variable(ref)
        else:
            count = self._variable_outrefs.get(ref, 0)
            if count <= 1:
                self._variable_outrefs.pop(ref, None)
            else:
                self._variable_outrefs[ref] = count - 1

    @property
    def variable_outrefs(self) -> Set[ObjectId]:
        return set(self._variable_outrefs)

    # -- handlers ------------------------------------------------------------------------------------

    def _is_duplicate_update(self, message: Message) -> bool:
        """True (and the anchor re-acked) if ``message`` is at or below the
        sender's anchor: state already applied or superseded.  Re-acking is
        what stops the sender's retransmissions when an earlier ack was lost.
        """
        anchor = self._update_anchor.get(message.src, 0)
        if message.payload.seq > anchor:
            return False
        self.send(message.src, UpdateAck(seq=anchor))
        self.metrics.incr(names.dup_suppressed(message.kind))
        return True

    def _on_update(self, message: Message) -> None:
        payload: UpdatePayload = message.payload
        if payload.seq > 0:
            if self._is_duplicate_update(message):
                return
            # A full update is self-contained state: it re-anchors the delta
            # chain regardless of what was missed before it.
            self.send(message.src, UpdateAck(seq=payload.seq))
            self._update_anchor[message.src] = payload.seq
        apply_update(self.inrefs, message.src, payload)

    def _on_update_delta(self, message: Message) -> None:
        payload: UpdateDeltaPayload = message.payload
        if payload.seq > 0:
            if self._is_duplicate_update(message):
                return
            if payload.seq != self._update_anchor.get(message.src, 0) + 1:
                # Gap: this delta was diffed against state we never applied.
                # Discard it and ask for a state transfer.  Deliberately NOT
                # acked: if the refresh request is lost, the sender's
                # retransmission timer (which resends a *full* update) is the
                # backstop that re-anchors us, and it runs until an ack
                # covers the last update sent.
                self.metrics.incr(names.UPDATE_GAPS_DETECTED)
                self.metrics.incr(names.UPDATE_REFRESHES_REQUESTED)
                self.send(message.src, UpdateRefreshRequest())
                return
            self.send(message.src, UpdateAck(seq=payload.seq))
            self._update_anchor[message.src] = payload.seq
        apply_update_delta(self.inrefs, message.src, payload)

    def _on_update_refresh_request(self, message: Message) -> None:
        self.metrics.incr(names.UPDATE_REFRESHES_SERVED)
        self._send_update(message.src, self._build_full_update(message.src))

    def _on_update_ack(self, message: Message) -> None:
        # Acks are cumulative: one covering the last update sent stops the
        # timer; an older one says nothing about the updates after it.
        timer = self._update_timers.get(message.src)
        if timer is not None and message.payload.seq >= self._update_seq[message.src]:
            timer.cancel()
            del self._update_timers[message.src]

    def _on_insert_request(self, message: Message) -> None:
        payload: InsertRequest = message.payload
        if not self.heap.contains(payload.target):
            # The object is already gone: the sender's reference dangles into
            # garbage (its holder must itself be unreachable).  Registering a
            # source for a nonexistent object would resurrect nothing.
            if payload.pin_holder is not None and payload.pin_holder != self.site_id:
                self.send(payload.pin_holder, InsertDone(target=payload.target))
            return
        # The new holder is the sender of the insert (section 2): record it
        # with the conservative new-source distance of 1, then apply the
        # transfer barrier to the inref (section 6.1.2 case 4).
        self.cycle_collector.on_reference_arrival(payload.target)
        self.inrefs.ensure(payload.target, source=message.src, distance=1)
        self.barrier.on_reference_arrival(payload.target)
        if payload.release_owner_custody:
            self._release_pin(payload.target)
        if payload.pin_holder is not None and payload.pin_holder != self.site_id:
            self.send(payload.pin_holder, InsertDone(target=payload.target))
        elif payload.pin_holder == self.site_id:
            self._release_pin(payload.target)

    def _on_insert_done(self, message: Message) -> None:
        self._release_pin(message.payload.target)

    def _on_unpin(self, message: Message) -> None:
        self._release_pin(message.payload.target)

    def _release_pin(self, target: ObjectId) -> None:
        if target.site == self.site_id:
            count = self._send_pins.get(target, 0)
            if count > 0:
                if count == 1:
                    self._send_pins.pop(target)
                else:
                    self._send_pins[target] = count - 1
                self.heap.unpin_variable(target)
            return
        entry = self.outrefs.get(target)
        if entry is not None and entry.pin_count > 0:
            self.outrefs.unpin(target)

    def _on_mutator_hop(self, message: Message) -> None:
        payload: MutatorHop = message.payload
        # Transfer barrier fires before the mutator proceeds (section 6.1.1).
        self.cycle_collector.on_reference_arrival(payload.target)
        self.barrier.on_reference_arrival(payload.target)
        if self.on_mutator_hop is not None:
            self.on_mutator_hop(payload.mutator, payload.target)

    def _on_remote_copy(self, message: Message) -> None:
        payload: RemoteCopy = message.payload
        ref = payload.ref
        if ref.site == self.site_id:
            # Case 1: we own the object -- the transfer barrier applies.
            self.cycle_collector.on_reference_arrival(ref)
            self.barrier.on_reference_arrival(ref)
            # The sender held (an outref for) the reference, so it is already
            # in our source list unless it owned a transient copy; make sure.
            if message.src != self.site_id:
                self.inrefs.ensure(ref, source=message.src, distance=1)
            self._maybe_unpin_sender(payload)
        else:
            if ref in self.outrefs:
                # Cases 2 and 3: clean a suspected outref; nothing otherwise.
                if not self.outrefs.is_clean(ref):
                    self.cycle_collector.on_outref_cleaned(ref)
                    self.barrier.clean_outref(ref)
                self._maybe_unpin_sender(payload)
            else:
                # Case 4: create a clean outref and tell the owner.
                self.outrefs.ensure(ref, clean=True)
                self.metrics.incr("gc.inserts_sent")
                self.send(
                    ref.site,
                    InsertRequest(target=ref, pin_holder=payload.pin_holder),
                )
        self._deferred(("add", payload.dest_holder, ref))

    def _maybe_unpin_sender(self, payload: RemoteCopy) -> None:
        if payload.pin_holder is None:
            return
        if payload.pin_holder == self.site_id:
            self._release_pin(payload.ref)
        else:
            self.send(payload.pin_holder, UnpinRequest(target=payload.ref))

    # -- introspection -------------------------------------------------------------------------------

    def audit(self) -> SiteAudit:
        """What the oracle reads of this site (see :class:`SiteAudit`)."""
        roots = self.heap.persistent_roots | self.heap.variable_roots
        roots.update(self._variable_outrefs)
        for kind, holder, target in self._pending_writes:
            if kind == "add":
                roots.update((holder, target))
        objects = {oid: tuple(refs) for oid, refs in self.heap.resident_slots()}
        return SiteAudit(
            objects,
            roots,
            set(self.inrefs.garbage_targets()),
            dict(self._update_anchor),
            dict(self._update_seq),
            set(self._update_timers),
            set(self._desynced_peers),
        )

    def check_flat_mirror(self) -> Optional[str]:
        """The audit of the heap's flat mirror and of what the local trace
        keeps between traces (the heap's region memos, the tables'
        records and changed sets) as text, None when it all holds."""
        try:
            self.heap.check_flat_mirror()
            self.collector.check_tables()
        except AssertionError as error:
            return f"site {self.site_id}: flat mirror: {error}"

    def stats(self) -> Dict[str, int]:
        return {
            "objects": len(self.heap),
            "inrefs": len(self.inrefs),
            "outrefs": len(self.outrefs),
            "allocated": self.heap.objects_allocated,
            "collected": self.heap.objects_collected,
        }

    def collector_stats(self) -> Dict[str, object]:
        """The cycle-collection backend's name and counters."""
        stats: Dict[str, object] = {"collector": self.cycle_collector.name}
        stats.update(self.cycle_collector.stats())
        return stats
