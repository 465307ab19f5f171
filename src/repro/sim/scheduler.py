"""Priority-queue event scheduler with deterministic tie-breaking.

Events at equal simulated times fire in the order they were scheduled (a
monotonic sequence number breaks ties), so a run is fully determined by the
sequence of ``schedule`` calls -- no dict-ordering or hash-randomization
effects can change behaviour between runs.

The heap holds ``(time, seq, event)`` tuples rather than order-comparable
event objects: ``seq`` is unique, so every sift comparison is decided by the
C tuple comparison on a float (and at worst an int) and never falls through
to Python-level ``__lt__``.  The event riding third *is* the
:class:`EventHandle` the caller gets back, so a push allocates one record
and one tuple.  This is the per-event hot path of the whole
simulator -- the sequential engine and every shard worker's inner loop pay
one push and one pop per event -- and generated dataclass comparisons were
its single largest interpreter cost (EXPERIMENTS.md E23; the rewrite was
twinned byte-for-byte against the implementation it replaced, and the
``hot_path`` golden digests now hold that identity).

Callbacks come in two forms: a plain thunk ``fn()`` or, with the ``arg``
keyword, ``fn(arg)``.  The second form exists for the network's deliveries
-- the hottest schedule site in the system -- which previously allocated a
fresh closure per message just to carry the :class:`~repro.net.message.
Message` into the callback.

Two features exist for the sharded parallel engine (:mod:`repro.sim.parallel`):

- every event may carry an owning *site* tag, which lets a forked shard
  worker retain exactly the events that belong to its sites
  (:meth:`Scheduler.retain_sites`);
- :meth:`Scheduler.run_until_before` fires events *strictly below* a bound,
  which is the shape conservative-lookahead windows need (a shard may run all
  events below the global safe time, and nothing at or past it).

Cancelled events are removed lazily when popped; when more than half of a
non-trivial queue is cancelled carcasses (e.g. the back-trace timeout handles
cancelled on every completed trace), the queue is compacted in one O(n)
rebuild so memory and pop cost stay proportional to live events.  In
addition, every bounded run prunes cancelled *heads* on entry and exit --
a storm of timeouts cancelled beyond the current window therefore cannot
linger at the front of the queue across many short ``run_for`` calls (each
would otherwise re-discover them before reaching its first live event).
"""

from __future__ import annotations

import heapq
from typing import Callable, List, Optional, Set, Tuple

from ..errors import SchedulerError
from ..ids import SiteId

EventCallback = Callable[[], None]

_COMPACT_MIN_QUEUE = 64
"""Queues smaller than this are never compacted (rebuild cost beats benefit)."""

_NO_ARG = object()
"""Sentinel: the event's callback is a plain thunk, fire it as ``fn()``."""


class EventHandle:
    """One scheduled event: returned by :meth:`Scheduler.schedule`, and the
    record the queue itself holds (third in the heap tuples), so a push
    allocates one object.

    Public surface: :attr:`time`, :attr:`cancelled`, :meth:`cancel`.  Not
    order-comparable -- the heap never compares it, because the
    ``(time, seq)`` tuple prefix is unique.  ``_fn is None`` doubles as the
    cancelled/consumed mark.
    """

    __slots__ = ("time", "_fn", "_arg", "_label", "_site", "_owner")

    def __init__(self, time, fn, arg, label, site, owner):
        #: Simulated time at which the event will fire (or would have).
        self.time = time
        self._fn = fn
        self._arg = arg
        self._label = label
        self._site = site
        self._owner = owner

    @property
    def cancelled(self) -> bool:
        return self._fn is None

    def cancel(self) -> None:
        """Prevent the event from firing.  Cancelling twice is a no-op."""
        if self._fn is None:
            return
        self._fn = None
        self._arg = None
        self._owner._note_cancelled()


#: A heap entry: C-comparable key prefix, then the event record.
_Entry = Tuple[float, int, EventHandle]


class Scheduler:
    """A discrete-event scheduler: simulated clock plus a timed callback queue."""

    def __init__(self) -> None:
        #: Current simulated time.  A plain attribute because the per-message
        #: path reads it; only the run loops here may move it.
        self.now = 0.0
        self._seq = 0
        self._queue: List[_Entry] = []
        self._events_fired = 0
        self._live_events = 0
        self._cancelled_events = 0

    @property
    def pending(self) -> int:
        """Number of queued, not-yet-cancelled events (O(1): a live counter
        maintained on schedule/cancel/fire, not a queue scan)."""
        return self._live_events

    @property
    def queue_length(self) -> int:
        """Physical queue length including cancelled carcasses (introspection
        for the compaction tests; ``pending`` is the semantic count)."""
        return len(self._queue)

    @property
    def events_fired(self) -> int:
        """Total callbacks executed so far (for progress reporting)."""
        return self._events_fired

    def schedule(
        self,
        delay: float,
        callback: EventCallback,
        label: str = "",
        site: Optional[SiteId] = None,
        arg: object = _NO_ARG,
    ) -> EventHandle:
        """Run ``callback`` after ``delay`` simulated time units.

        ``delay`` must be non-negative; zero-delay events fire after all
        events already scheduled for the current instant, preserving FIFO
        order within a timestamp.  ``site`` tags the event with the site it
        belongs to; the parallel engine partitions the queue by this tag.
        With ``arg`` given, the event fires as ``callback(arg)`` -- the
        closure-free delivery form of the network hot path.
        """
        if delay < 0:
            raise SchedulerError(f"cannot schedule into the past (delay={delay})")
        return self._push(self.now + delay, callback, label, site, arg)

    def schedule_at(
        self,
        time: float,
        callback: EventCallback,
        label: str = "",
        site: Optional[SiteId] = None,
        arg: object = _NO_ARG,
    ) -> EventHandle:
        """Run ``callback`` at absolute simulated time ``time``.

        Uses the absolute timestamp *exactly* -- converting to a relative
        delay and back loses bits to float rounding, which once broke the
        network's per-pair FIFO clamp by landing a delivery fractionally
        before an earlier one scheduled for the same instant.
        """
        if time < self.now:
            raise SchedulerError(
                f"cannot schedule into the past (time={time}, now={self.now})"
            )
        return self._push(time, callback, label, site, arg)

    def _push(
        self,
        time: float,
        callback: EventCallback,
        label: str,
        site: Optional[SiteId],
        arg: object = _NO_ARG,
    ) -> EventHandle:
        seq = self._seq
        self._seq = seq + 1
        event = EventHandle(time, callback, arg, label, site, self)
        heapq.heappush(self._queue, (time, seq, event))
        self._live_events += 1
        return event

    # -- cancellation bookkeeping / compaction ------------------------------

    def _note_cancelled(self) -> None:
        self._live_events -= 1
        self._cancelled_events += 1
        if (
            len(self._queue) >= _COMPACT_MIN_QUEUE
            and self._cancelled_events * 2 > len(self._queue)
        ):
            self.compact()

    def compact(self) -> None:
        """Drop cancelled carcasses and re-heapify the survivors.

        Firing order is unchanged: the surviving entries keep their (time,
        seq) keys, and ``heapify`` restores the heap invariant over exactly
        that comparable set.
        """
        self._queue = [entry for entry in self._queue if entry[2]._fn is not None]
        heapq.heapify(self._queue)
        self._cancelled_events = 0

    def _prune_cancelled_heads(self) -> None:
        """Pop every cancelled carcass sitting at the queue front.

        Called on entry *and* exit of the bounded run loops: a batch of
        timeouts cancelled past the current window bound is discarded the
        moment it surfaces, instead of being re-inspected at the head by
        every subsequent short ``run_for`` call until one finally reaches
        its timestamp.  Each carcass is popped at most once overall, so the
        amortized cost stays O(1) per cancelled event.
        """
        queue = self._queue
        while queue and queue[0][2]._fn is None:
            heapq.heappop(queue)
            self._cancelled_events -= 1

    # -- shard support ------------------------------------------------------

    def retain_sites(self, sites: Set[SiteId]) -> int:
        """Keep only events tagged with one of ``sites``; return kept count.

        Used by a forked shard worker right after fork: the inherited queue
        holds every site's events, and the worker must own exactly its
        shard's.  Events without a site tag cannot be attributed to a shard,
        so their presence is an error -- running them in one worker (or all)
        would diverge from the sequential engine.
        """
        untagged = [
            entry[2]._label or "<unlabelled>"
            for entry in self._queue
            if entry[2]._fn is not None and entry[2]._site is None
        ]
        if untagged:
            raise SchedulerError(
                "cannot shard a scheduler holding site-untagged events: "
                + ", ".join(sorted(set(untagged))[:8])
            )
        kept = [
            entry
            for entry in self._queue
            if entry[2]._fn is not None and entry[2]._site in sites
        ]
        heapq.heapify(kept)
        self._queue = kept
        self._live_events = len(kept)
        self._cancelled_events = 0
        return len(kept)

    def peek_time(self) -> float:
        """Timestamp of the earliest live event, or +inf when idle.

        O(1) amortized: cancelled carcasses at the head are pruned as a side
        effect (each is popped at most once across all calls), and the first
        live head is returned without popping it.  This is the public way to
        read the queue frontier -- the parallel engine's horizon and
        earliest-output-time computations build on it instead of touching
        the heap internals.
        """
        self._prune_cancelled_heads()
        if self._queue:
            return self._queue[0][0]
        return float("inf")

    def live_events(self):
        """Iterate ``(time, label, site)`` of every live event, heap order.

        A read-only scan (no pops, no compaction) for consumers that need
        more than the frontier -- the shard workers' earliest-output-time
        scan walks it once per window reply.  Order is the heap's physical
        order, not firing order; callers reduce (min), they do not replay.
        """
        for _time, _seq, event in self._queue:
            if event._fn is not None:
                yield event.time, event._label, event._site

    def queued_deliveries(self) -> list:
        """The message of every live ``deliver:`` event, in heap order (by
        label and argument, not callback, so wrapped deliveries count)."""
        return [
            event._arg
            for _time, _seq, event in self._queue
            if event._fn is not None
            and event._arg is not _NO_ARG
            and event._label.startswith("deliver:")
        ]

    # -- execution ----------------------------------------------------------

    def step(self) -> bool:
        """Fire the next event.  Returns False if the queue is empty."""
        queue = self._queue
        while queue:
            time, _seq, event = heapq.heappop(queue)
            fn = event._fn
            if fn is None:
                self._cancelled_events -= 1
                continue
            self.now = time
            event._fn = None
            self._live_events -= 1
            self._events_fired += 1
            if event._arg is _NO_ARG:
                fn()
            else:
                fn(event._arg)
            return True
        return False

    def run_until(self, time: float, max_events: Optional[int] = None) -> int:
        """Fire events with timestamps <= ``time``; return how many fired.

        The clock is advanced to ``time`` even if the queue drains early, so
        periodic activities rescheduled by their own callbacks stay aligned.
        """
        fired = 0
        queue = self._queue
        self._prune_cancelled_heads()
        while queue:
            head = queue[0]
            event = head[2]
            fn = event._fn
            if fn is None:
                heapq.heappop(queue)
                self._cancelled_events -= 1
                continue
            if head[0] > time:
                break
            if max_events is not None and fired >= max_events:
                break
            # Inline firing (the body of step()): the head was just
            # inspected, popping it again through step() would re-test it.
            heapq.heappop(queue)
            self.now = head[0]
            event._fn = None
            self._live_events -= 1
            self._events_fired += 1
            if event._arg is _NO_ARG:
                fn()
            else:
                fn(event._arg)
            fired += 1
            # The callback may have cancelled enough events to trigger a
            # compaction (which rebuilds the queue list): re-read it.
            queue = self._queue
        self._prune_cancelled_heads()
        if not (max_events is not None and fired >= max_events):
            self.now = max(self.now, time)
        return fired

    def run_until_before(self, bound: float) -> int:
        """Fire every event with timestamp strictly below ``bound``.

        The conservative-lookahead window of the parallel engine: a shard may
        execute all events below the global safe time but nothing at or past
        it.  The clock is *not* force-advanced to ``bound`` -- it moves only
        as events fire, so a later window (or :meth:`advance_clock`) decides
        the final clock position.
        """
        fired = 0
        queue = self._queue
        self._prune_cancelled_heads()
        while queue:
            head = queue[0]
            event = head[2]
            fn = event._fn
            if fn is None:
                heapq.heappop(queue)
                self._cancelled_events -= 1
                continue
            if head[0] >= bound:
                break
            heapq.heappop(queue)
            self.now = head[0]
            event._fn = None
            self._live_events -= 1
            self._events_fired += 1
            if event._arg is _NO_ARG:
                fn()
            else:
                fn(event._arg)
            fired += 1
            # Compaction inside the callback rebuilds the list: re-read it.
            queue = self._queue
        self._prune_cancelled_heads()
        return fired

    def advance_clock(self, time: float) -> None:
        """Move the clock forward to ``time`` without firing anything.

        Complements :meth:`run_until_before` at the end of a windowed
        advance; never moves the clock backwards.
        """
        self.now = max(self.now, time)

    def run_for(self, duration: float, max_events: Optional[int] = None) -> int:
        """Fire events within the next ``duration`` time units."""
        return self.run_until(self.now + duration, max_events=max_events)

    def drain(self, max_events: int = 1_000_000) -> int:
        """Fire events until the queue is empty (bounded by ``max_events``)."""
        fired = 0
        while fired < max_events and self.step():
            fired += 1
        if fired >= max_events and self.pending:
            raise SchedulerError(
                f"drain exceeded {max_events} events with {self.pending} still pending"
            )
        return fired
