"""Unit tests for the discrete-event scheduler."""

import pytest

from repro.errors import SchedulerError
from repro.sim.scheduler import Scheduler


def test_clock_starts_at_zero():
    assert Scheduler().now == 0.0


def test_events_fire_in_time_order():
    sched = Scheduler()
    fired = []
    sched.schedule(5.0, lambda: fired.append("b"))
    sched.schedule(1.0, lambda: fired.append("a"))
    sched.schedule(9.0, lambda: fired.append("c"))
    sched.drain()
    assert fired == ["a", "b", "c"]


def test_ties_break_by_schedule_order():
    sched = Scheduler()
    fired = []
    for name in "abcde":
        sched.schedule(3.0, lambda n=name: fired.append(n))
    sched.drain()
    assert fired == list("abcde")


def test_clock_advances_to_event_time():
    sched = Scheduler()
    times = []
    sched.schedule(2.5, lambda: times.append(sched.now))
    sched.schedule(7.0, lambda: times.append(sched.now))
    sched.drain()
    assert times == [2.5, 7.0]
    assert sched.now == 7.0


def test_negative_delay_rejected():
    with pytest.raises(SchedulerError):
        Scheduler().schedule(-1.0, lambda: None)


def test_cancel_prevents_firing():
    sched = Scheduler()
    fired = []
    handle = sched.schedule(1.0, lambda: fired.append("x"))
    handle.cancel()
    sched.drain()
    assert fired == []
    assert handle.cancelled


def test_cancel_twice_is_noop():
    sched = Scheduler()
    handle = sched.schedule(1.0, lambda: None)
    handle.cancel()
    handle.cancel()
    assert handle.cancelled


def test_run_until_fires_only_due_events():
    sched = Scheduler()
    fired = []
    sched.schedule(1.0, lambda: fired.append(1))
    sched.schedule(2.0, lambda: fired.append(2))
    sched.schedule(3.0, lambda: fired.append(3))
    count = sched.run_until(2.0)
    assert count == 2
    assert fired == [1, 2]
    assert sched.now == 2.0


def test_run_until_advances_clock_past_empty_queue():
    sched = Scheduler()
    sched.run_until(42.0)
    assert sched.now == 42.0


def test_run_for_is_relative():
    sched = Scheduler()
    sched.run_until(10.0)
    fired = []
    sched.schedule(5.0, lambda: fired.append(sched.now))
    sched.run_for(5.0)
    assert fired == [15.0]


def test_events_scheduled_during_events_fire():
    sched = Scheduler()
    fired = []

    def outer():
        fired.append("outer")
        sched.schedule(1.0, lambda: fired.append("inner"))

    sched.schedule(1.0, outer)
    sched.drain()
    assert fired == ["outer", "inner"]


def test_zero_delay_event_fires_after_current():
    sched = Scheduler()
    fired = []

    def outer():
        sched.schedule(0.0, lambda: fired.append("zero"))
        fired.append("outer")

    sched.schedule(1.0, outer)
    sched.drain()
    assert fired == ["outer", "zero"]


def test_drain_bound_raises_on_runaway():
    sched = Scheduler()

    def reschedule():
        sched.schedule(1.0, reschedule)

    sched.schedule(1.0, reschedule)
    with pytest.raises(SchedulerError):
        sched.drain(max_events=100)


def test_pending_counts_uncancelled():
    sched = Scheduler()
    sched.schedule(1.0, lambda: None)
    handle = sched.schedule(2.0, lambda: None)
    handle.cancel()
    assert sched.pending == 1


def test_run_until_respects_max_events():
    sched = Scheduler()
    fired = []
    for i in range(10):
        sched.schedule(1.0, lambda i=i: fired.append(i))
    count = sched.run_until(5.0, max_events=3)
    assert count == 3
    assert fired == [0, 1, 2]
    # Clock must not jump to the target when stopped early.
    assert sched.now == 1.0


def test_events_fired_counter():
    sched = Scheduler()
    for _ in range(4):
        sched.schedule(1.0, lambda: None)
    sched.drain()
    assert sched.events_fired == 4


def test_schedule_at_absolute_time():
    sched = Scheduler()
    times = []
    sched.schedule_at(12.0, lambda: times.append(sched.now))
    sched.drain()
    assert times == [12.0]


# -- peek_time / live_events (the parallel planner's read surface) -----------


def test_peek_time_skips_cancelled_heads():
    sched = Scheduler()
    first = sched.schedule(2.0, lambda: None)
    sched.schedule(5.0, lambda: None)
    assert sched.peek_time() == 2.0
    first.cancel()
    # The cancelled head is popped lazily by the peek itself, so repeated
    # peeks between events stay O(1).
    assert sched.peek_time() == 5.0
    assert sched.queue_length == 1


def test_peek_time_idle_is_inf():
    sched = Scheduler()
    assert sched.peek_time() == float("inf")
    sched.schedule(3.0, lambda: None)
    assert sched.peek_time() == 3.0


def test_live_events_excludes_cancelled_and_carries_label_and_site():
    sched = Scheduler()
    sched.schedule(3.0, lambda: None, label="gc-tick:A", site="A")
    doomed = sched.schedule(1.0, lambda: None, label="deliver:x", site="B")
    sched.schedule(7.0, lambda: None)
    doomed.cancel()
    events = sorted(sched.live_events())
    assert events == [(3.0, "gc-tick:A", "A"), (7.0, "", None)]
