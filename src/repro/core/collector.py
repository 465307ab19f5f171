"""The pluggable distributed-cycle-collector strategy boundary.

Historically the back tracer was the only distributed cycle collector and
its wiring was baked straight into :class:`repro.site.site.Site`: the site
constructed a :class:`BackTraceEngine` by hand, registered its message
handlers, ran its trigger scan after every local trace, and special-cased
it in the quiet-tick predictor.  Nothing could cross-validate what garbage
it found or when (ROADMAP: "Second collector backend for differential
testing").

This module extracts that boundary.  A :class:`Collector` is the per-site
strategy for the *distributed cycle detection* layer -- everything above
the shared substrate of local traces, ioref tables, distance propagation,
and barriers, which stays in :class:`~repro.gc.localtrace.LocalCollector`
and :class:`~repro.core.barriers.TransferBarrier` unchanged.  The strategy
owns:

- the inter-site GC message handlers it needs (:meth:`Collector.handlers`),
  merged into the site's dispatch table at construction;
- which of its payloads need at-least-once sequence stamping and dedup
  (:meth:`Collector.sequenced_payload_types`);
- the suspicion-trigger scan run after every local trace or skipped tick
  (:meth:`Collector.check_triggers`);
- a side-effect-free quiet prediction consumed by the parallel engine's
  earliest-output-time scan (:meth:`Collector.predict_quiet`);
- barrier hooks fired on reference arrival and outref cleaning, so a
  backend can dirty in-flight decisions the way the clean rule repairs the
  back tracer's (:meth:`Collector.on_reference_arrival` /
  :meth:`Collector.on_outref_cleaned`);
- its metrics/introspection export (:meth:`Collector.stats`).

There are exactly three backends, named by ``GcConfig.collector`` (which
rejects any other name): ``backtrace`` and ``null`` (defined here) and the
termination-detection rival ``termination`` (:mod:`repro.core.termination`,
which :func:`collector_class` imports on first use, so ``import repro``
does not load it).  The section 7 baselines are not backends: they are
harness-side drivers constructed directly over a simulation
(:mod:`repro.baselines`), and importing the core loads none of them.
"""

from __future__ import annotations

from typing import (
    TYPE_CHECKING,
    Callable,
    ClassVar,
    Dict,
    Iterable,
    Iterator,
    List,
    Mapping,
    Optional,
    Tuple,
    Type,
)

from ..ids import ObjectId
from .backtrace.engine import BackTraceEngine
from .backtrace.messages import (
    BackCall,
    BackCallBatch,
    BackOutcome,
    BackReply,
    BackReplyBatch,
)

if TYPE_CHECKING:  # pragma: no cover - import cycle guard, typing only
    from ..gc.outrefs import OutrefEntry
    from ..net.message import Message, Payload
    from ..site.site import Site


class Collector:
    """Per-site strategy for one distributed cycle-collection backend.

    Subclasses are constructed by :class:`~repro.site.site.Site` through
    :func:`collector_class` of ``GcConfig.collector``; at construction time the
    site's heap, ioref tables, local collector, scheduler, and ``send`` are
    ready, while the transfer barrier is built *after* the strategy (it
    needs the strategy's optional back-trace engine).  Every method has a
    safe no-op default so minimal backends only override what they use.
    """

    #: The ``GcConfig.collector`` name, for error messages and stats exports.
    name: ClassVar[str] = "null"

    def __init__(self, site: "Site"):
        self.site = site

    # -- wiring ------------------------------------------------------------------

    def handlers(self) -> Mapping[type, Callable[["Message"], None]]:
        """Payload type -> handler, merged into the site dispatch table."""
        return {}

    def sequenced_payload_types(self) -> Tuple[type, ...]:
        """Payload types needing per-(sender, receiver) seq stamping/dedup.

        Returned types are unioned with the site's base sequenced-mutation
        set: their deliveries are stamped by :meth:`Site.send` and replayed
        duplicates suppressed by :meth:`Site.receive`.  Backends whose
        redeliveries are not idempotent (e.g. credit-carrying termination
        messages -- a duplicated ack would double-recover credit) declare
        them here instead of re-implementing dedup.  Every sequenced payload
        carries a ``seq`` field (``-1`` = unstamped) and a ``with_seq(seq)``
        returning the stamped copy; the site checks for it at construction.
        """
        return ()

    # -- triggers / quiescence -----------------------------------------------------

    def check_triggers(
        self, suspected_outrefs: Optional[List["OutrefEntry"]] = None
    ) -> List[ObjectId]:
        """Scan for suspects past threshold; start collection activity.

        Called by the site after every local trace commit *and* after every
        skipped incremental tick, mirroring the paper's section 4.3 trigger
        placement.  ``suspected_outrefs`` is the outref table's suspected
        entries in target order when the caller has just walked the table
        (a trace commit does); backends that want them read the table
        themselves when it is None.  Returns the roots for which new
        activity started (used by tests and the tuner).
        """
        return []

    def predict_quiet(self) -> bool:
        """True only if upcoming gc ticks provably start no activity.

        Must be free of side effects (no metrics, no state changes): the
        parallel engine's earliest-output-time scan calls it speculatively.
        Returning False merely costs a window; returning True wrongly would
        let the planner jump over real traffic, so default to False in any
        backend with in-flight state.
        """
        return True

    # -- barrier hooks ------------------------------------------------------------

    def on_reference_arrival(self, target: ObjectId) -> None:
        """A reference to local object ``target`` arrived (or was handed out).

        Fired at every transfer-barrier call site -- insert requests, remote
        copies, mutator hops, and the owner pinning its own object for an
        outbound send -- *before* the barrier runs.  Backends with in-flight
        decisions about ``target`` must treat this as a mutation.
        """

    def on_outref_cleaned(self, target: ObjectId) -> None:
        """The clean rule just cleaned our suspected outref on ``target``."""

    # -- lifecycle ----------------------------------------------------------------

    def on_recover(self) -> None:
        """Site recovered from a crash: drop in-flight collection state."""

    # -- introspection ------------------------------------------------------------

    def stats(self) -> Dict[str, int]:
        """Backend counters for dashboards/tests (merged into exports)."""
        return {}


class NullCollector(Collector):
    """No distributed cycle collection (plain local tracing).

    The counterfactual backend of Figure 1 -- acyclic distributed garbage
    still dies through reference listing, cross-site cycles float.  Also the
    per-site strategy under the section 7 baseline drivers, which do their
    own message registration against the running simulation.
    """

    name = "null"


class BackTracingCollector(Collector):
    """The paper's back tracer behind the strategy boundary.

    This is a pure relocation of the wiring that used to live inline in
    ``Site``: the engine construction, the back-trace message handlers, the
    section 4.3 trigger scan, and the backtrace leg of the quiet-tick
    prediction moved here verbatim so the extraction is byte-identical
    (proven by the twin tests in ``tests/integration``).
    """

    name = "backtrace"

    def __init__(self, site: "Site"):
        super().__init__(site)
        self.engine = BackTraceEngine(
            site.site_id,
            site.inrefs,
            site.outrefs,
            site.config,
            site.scheduler,
            send=site.send,
            metrics=site.metrics,
            on_outcome=site._trace_outcome,
            on_outcome_applied=site._trace_outcome_applied,
        )

    def handlers(self) -> Mapping[type, Callable[["Message"], None]]:
        return {
            BackCall: self._on_back_call,
            BackCallBatch: self._on_back_call_batch,
            BackReply: self._on_back_reply,
            BackReplyBatch: self._on_back_reply_batch,
            BackOutcome: self._on_back_outcome,
        }

    def _on_back_call(self, message: "Message") -> None:
        self.engine.handle_back_call(message.src, message.payload)

    def _on_back_call_batch(self, message: "Message") -> None:
        self.engine.handle_back_call_batch(message.src, message.payload)

    def _on_back_reply(self, message: "Message") -> None:
        self.engine.handle_back_reply(message.src, message.payload)

    def _on_back_reply_batch(self, message: "Message") -> None:
        self.engine.handle_back_reply_batch(message.src, message.payload)

    def _on_back_outcome(self, message: "Message") -> None:
        self.engine.handle_back_outcome(message.src, message.payload)

    def check_triggers(
        self, suspected_outrefs: Optional[List["OutrefEntry"]] = None
    ) -> List[ObjectId]:
        """Start a back trace from each suspected outref past its threshold."""
        site = self.site
        started: List[ObjectId] = []
        if suspected_outrefs is None:
            suspected_outrefs = site.outrefs.suspected_entries()
        # Either way deterministically ordered by target.
        for entry in _past_back_threshold(suspected_outrefs):
            if self.engine.start_trace(entry.target) is not None:
                started.append(entry.target)
                if len(started) >= site.config.max_traces_per_trigger_check:
                    break
        return started

    def predict_quiet(self) -> bool:
        # Conservative: a trigger ``start_trace`` would refuse (a trace
        # already in flight, a retry back-off) still reads as activity.
        triggered = _past_back_threshold(self.site.outrefs.suspected_entries())
        return next(triggered, None) is None

    def stats(self) -> Dict[str, int]:
        return {"active_traces": self.engine.active_trace_count}


def _past_back_threshold(
    entries: Iterable["OutrefEntry"],
) -> Iterator["OutrefEntry"]:
    """Section 4.3's trigger: the suspected outrefs whose distance exceeds
    their back threshold, in the order given."""
    return (entry for entry in entries if entry.distance > entry.back_threshold)


def collector_class(name: str) -> Type[Collector]:
    """The per-site strategy class for a ``GcConfig.collector`` name (one of
    :data:`repro.config.COLLECTORS`; the config rejects any other)."""
    if name == "termination":
        # Imported on first use, so ``import repro`` does not load it.
        from .termination import TerminationCollector

        return TerminationCollector
    return {"backtrace": BackTracingCollector, "null": NullCollector}[name]
