"""Properties of the tuple-keyed scheduler heap (:class:`Scheduler`).

The scheduler's contract is deterministic total order: events fire in
``(time, seq)`` order whatever mix of ``schedule`` / ``schedule_at`` /
``cancel`` / ``compact`` / bounded runs produced the queue.  The heap
layout (tuple entries, lazy cancellation, compaction rebuilds, head
pruning) is an implementation detail that must never show through.  These
tests drive randomized interleavings against a trivially correct reference
model -- a flat list of (time, seq) records fired by sorting -- plus
directed checks for the boundary semantics (`run_until` is inclusive,
``run_until_before`` exclusive) and for compaction triggered *inside* a
running callback (which rebuilds the queue list mid-loop).
"""

import pytest
from hypothesis import given, settings, strategies as st

from repro.sim.scheduler import Scheduler

from ..conftest import examples


class ModelScheduler:
    """Reference model: a plain list, fired by sorting on (time, seq)."""

    def __init__(self):
        self.now = 0.0
        self.seq = 0
        self.events = []  # [time, seq, label, alive]
        self.fired = []

    def schedule_at(self, time, label):
        self.events.append([time, self.seq, label, True])
        self.seq += 1

    def live_handles(self):
        return [e for e in self.events if e[3]]

    def cancel(self, event):
        event[3] = False

    def _fire_below(self, limit, inclusive):
        while True:
            live = [
                e
                for e in self.events
                if e[3] and (e[0] <= limit if inclusive else e[0] < limit)
            ]
            if not live:
                return
            event = min(live, key=lambda e: (e[0], e[1]))
            event[3] = False
            self.now = event[0]
            self.fired.append((event[0], event[2]))

    def run_until(self, time):
        self._fire_below(time, inclusive=True)
        self.now = max(self.now, time)

    def run_until_before(self, bound):
        self._fire_below(bound, inclusive=False)

    def drain(self):
        self._fire_below(float("inf"), inclusive=True)


OPS = st.lists(
    st.one_of(
        st.tuples(st.just("schedule"), st.integers(0, 50)),
        st.tuples(st.just("cancel"), st.integers(0, 10_000)),
        st.tuples(st.just("compact"), st.just(0)),
        st.tuples(st.just("run_until"), st.integers(0, 60)),
        st.tuples(st.just("run_until_before"), st.integers(0, 60)),
    ),
    min_size=1,
    max_size=120,
)


@settings(max_examples=examples(200), deadline=None)
@given(ops=OPS)
def test_interleaved_schedule_cancel_run_matches_reference_model(ops):
    """Any interleaving of the public operations fires the same (time, label)
    sequence as the sort-based reference model, with matching clocks and
    pending counts throughout."""
    sched = Scheduler()
    model = ModelScheduler()
    fired = []
    handles = []  # (EventHandle, model event) pairs, in schedule order
    label_counter = [0]

    def make_cb(time, label):
        return lambda: fired.append((time, label))

    for op, value in ops:
        if op == "schedule":
            time = sched.now + float(value)
            label = f"e{label_counter[0]}"
            label_counter[0] += 1
            handles.append(
                (
                    sched.schedule_at(time, make_cb(time, label), label=label),
                    model.events[len(model.events) :],
                )
            )
            model.schedule_at(time, label)
            handles[-1] = (handles[-1][0], model.events[-1])
        elif op == "cancel":
            live = [(h, e) for h, e in handles if not h.cancelled and e[3]]
            if live:
                handle, event = live[value % len(live)]
                handle.cancel()
                model.cancel(event)
        elif op == "compact":
            sched.compact()
        elif op == "run_until":
            sched.run_until(float(value))
            model.run_until(float(value))
        else:
            sched.run_until_before(float(value))
            model.run_until_before(float(value))
        assert sched.now == model.now
        assert sched.pending == len(model.live_handles())
        assert fired == model.fired
        assert sched.peek_time() == min(
            (e[0] for e in model.live_handles()), default=float("inf")
        )

    sched.drain()
    model.drain()
    assert fired == model.fired
    assert sched.pending == 0


@settings(max_examples=examples(100), deadline=None)
@given(
    count=st.integers(2, 30),
    times=st.lists(st.sampled_from([1.0, 2.0, 3.0]), min_size=2, max_size=30),
)
def test_equal_timestamps_fire_in_schedule_order(count, times):
    """FIFO within a timestamp: events at the same time fire in the order
    they were scheduled, however they interleave with other timestamps."""
    sched = Scheduler()
    fired = []
    for index, time in enumerate(times):
        sched.schedule_at(time, lambda i=index: fired.append(i))
    sched.drain()
    by_time = sorted(range(len(times)), key=lambda i: (times[i], i))
    assert fired == by_time


def test_run_until_is_inclusive_and_run_until_before_is_exclusive():
    sched = Scheduler()
    fired = []
    sched.schedule_at(5.0, lambda: fired.append("at-bound"))
    sched.schedule_at(4.0, lambda: fired.append("below"))
    assert sched.run_until_before(5.0) == 1
    assert fired == ["below"]
    assert sched.now == 4.0  # run_until_before never force-advances the clock
    assert sched.run_until(5.0) == 1
    assert fired == ["below", "at-bound"]
    assert sched.now == 5.0


def test_bounded_runs_prune_cancelled_heads_past_the_bound():
    """A storm of timeouts cancelled *beyond* the window bound is discarded
    by the next bounded run instead of lingering at the queue head."""
    sched = Scheduler()
    storm = [sched.schedule_at(50.0, lambda: None) for _ in range(10)]
    sched.schedule_at(100.0, lambda: None)
    for handle in storm:
        handle.cancel()
    assert sched.queue_length == 11
    assert sched.run_until(10.0) == 0  # fires nothing: bound is below everything
    assert sched.queue_length == 1  # ...but the cancelled heads are gone
    assert sched.pending == 1


def test_callback_cancellation_triggers_compaction_mid_run():
    """A callback that cancels most of the queue trips the compaction
    threshold *while run_until is iterating*; the rebuilt queue must keep
    firing the survivors in order."""
    sched = Scheduler()
    fired = []
    victims = []

    def massacre():
        fired.append("massacre")
        for handle in victims:
            handle.cancel()

    sched.schedule_at(1.0, massacre)
    # 200 victims at t=2 (cancelled mid-run) interleaved with survivors.
    survivors = []
    for index in range(200):
        victims.append(sched.schedule_at(2.0, lambda: fired.append("victim")))
        if index % 10 == 0:
            time = 3.0 + index
            survivors.append(time)
            sched.schedule_at(time, lambda t=time: fired.append(t))
    before = sched.queue_length
    assert sched.run_until(1000.0) == 1 + len(survivors)
    assert fired == ["massacre"] + survivors
    assert sched.queue_length == 0 < before
    assert sched.pending == 0


@settings(max_examples=examples(60), deadline=None)
@given(
    bound=st.integers(1, 40),
    times=st.lists(st.integers(0, 50), min_size=1, max_size=60),
)
def test_run_until_before_boundary_matches_model(bound, times):
    """Exactly the events strictly below the bound fire, in (time, seq)
    order; events at the bound survive untouched."""
    sched = Scheduler()
    fired = []
    for index, time in enumerate(times):
        sched.schedule_at(float(time), lambda i=index: fired.append(i))
    count = sched.run_until_before(float(bound))
    expected = sorted(
        (i for i, t in enumerate(times) if t < bound),
        key=lambda i: (times[i], i),
    )
    assert fired == expected
    assert count == len(expected)
    assert sched.pending == len(times) - len(expected)


def test_max_events_stops_mid_timestamp_without_advancing_clock():
    sched = Scheduler()
    fired = []
    for index in range(5):
        sched.schedule_at(1.0, lambda i=index: fired.append(i))
    assert sched.run_until(9.0, max_events=3) == 3
    assert fired == [0, 1, 2]
    assert sched.now == 1.0  # capped runs do not jump the clock to the bound
    assert sched.run_until(9.0) == 2
    assert sched.now == 9.0
