"""Unit tests for the parallel engine's building blocks.

Covers the scheduler features the sharded engine relies on (windowed
execution, site tagging, heap compaction), the coordinator's window planner
over hand-set shard advertisements, and shard assignment -- no worker
processes involved.
"""

import math

import pytest

from repro import NetworkConfig, Simulation, SimulationConfig
from repro.errors import SchedulerError
from repro.sim.parallel import _WorkerHandle, assign_shards
from repro.sim.scheduler import Scheduler

INF = float("inf")


# -- heap compaction (lazy-cancel carcass collection) ------------------------


def test_compaction_shrinks_queue_and_preserves_firing_order():
    sched = Scheduler()
    fired = []
    survivors_expected = []
    handles = []
    for index in range(200):
        delay = float(1 + (index * 7) % 50)
        keep = index % 3 == 0
        if keep:
            # (time, scheduling sequence) is the firing order contract.
            survivors_expected.append((delay, index))
        handle = sched.schedule(
            delay, lambda d=delay, i=index: fired.append((d, i))
        )
        if not keep:
            handles.append(handle)

    length_before = sched.queue_length
    for handle in handles:
        handle.cancel()
    # The cancellations crossed the half-carcass threshold mid-stream, so at
    # least one automatic rebuild dropped carcasses without waiting for pops.
    assert sched.queue_length < length_before
    assert sched.pending == len(survivors_expected)
    sched.compact()
    assert sched.queue_length == sched.pending == len(survivors_expected)

    sched.drain()
    assert fired == sorted(survivors_expected)


def test_small_queues_are_not_compacted():
    sched = Scheduler()
    handles = [sched.schedule(float(i + 1), lambda: None) for i in range(10)]
    for handle in handles[:8]:
        handle.cancel()
    # Below the compaction floor the carcasses stay until popped.
    assert sched.queue_length == 10
    assert sched.pending == 2


# -- windowed execution ------------------------------------------------------


def test_run_until_before_is_strictly_exclusive():
    sched = Scheduler()
    fired = []
    for delay in (1.0, 2.0, 3.0):
        sched.schedule(delay, lambda d=delay: fired.append(d))
    assert sched.run_until_before(3.0) == 2
    assert fired == [1.0, 2.0]
    # The clock is not force-advanced past the last fired event.
    assert sched.now == 2.0
    assert sched.peek_time() == 3.0
    sched.advance_clock(5.0)
    assert sched.now == 5.0
    sched.advance_clock(4.0)  # never moves backwards
    assert sched.now == 5.0


def test_retain_sites_keeps_exactly_the_shard():
    sched = Scheduler()
    fired = []
    for site in ("a", "b", "c"):
        for delay in (1.0, 2.0):
            sched.schedule(
                delay, lambda s=site, d=delay: fired.append((s, d)), site=site
            )
    kept = sched.retain_sites({"a", "c"})
    assert kept == 4 == sched.pending
    sched.drain()
    assert sorted(fired) == [("a", 1.0), ("a", 2.0), ("c", 1.0), ("c", 2.0)]


def test_retain_sites_rejects_untagged_events():
    sched = Scheduler()
    sched.schedule(1.0, lambda: None, label="anonymous-timer")
    with pytest.raises(SchedulerError, match="anonymous-timer"):
        sched.retain_sites({"a"})


def test_retain_sites_ignores_cancelled_untagged_events():
    sched = Scheduler()
    handle = sched.schedule(1.0, lambda: None)
    handle.cancel()
    sched.schedule(2.0, lambda: None, site="a")
    assert sched.retain_sites({"a"}) == 1


# -- safe-time planner -------------------------------------------------------


def _coordinator(next_times, lookahead):
    """An unforked coordinator whose shards advertise ``next_times``."""
    config = SimulationConfig(
        network=NetworkConfig(min_latency=lookahead, max_latency=10.0 * lookahead),
        parallel_workers=len(next_times),
    )
    sim = Simulation.create(config)
    sim._pool.workers = [_WorkerHandle(None, None) for _ in next_times]
    sim._shard_lookahead = [lookahead] * len(next_times)
    _advertise(sim, next_times, lookahead)
    return sim


def _advertise(sim, next_times, lookahead):
    # What a shard holding one live event at its frontier advertises.
    for worker, next_time in zip(sim._pool.workers, next_times):
        worker.next_time = next_time
        worker.eot = next_time + lookahead


def test_planner_window_is_horizon_plus_lookahead_clamped():
    target = math.nextafter(10.0, INF)
    assert _coordinator([1.0, 4.0], 2.0)._plan_bound(target) == 3.0
    assert _coordinator([9.5, 12.0], 2.0)._plan_bound(target) == target  # clamped
    assert _coordinator([target, 12.0], 2.0)._plan_bound(target) is None  # reached
    assert _coordinator([INF, INF], 2.0)._plan_bound(target) is None  # all idle


def test_planner_window_always_exceeds_horizon():
    # Lookahead so small it underflows against the horizon's magnitude: the
    # window must still make progress (cover the horizon event).
    horizon = 1e12
    sim = _coordinator([horizon, 1.5e12], 1e-9)
    assert sim._pool.workers[0].eot == horizon  # the underflow
    safe = sim._plan_bound(math.nextafter(2e12, INF))
    assert safe == math.nextafter(horizon, INF)


def test_planner_rounds_terminate():
    # Simulate shards whose next-event times advance by at least the window:
    # the loop must reach the target in finitely many rounds, each strictly
    # later than the last.
    target = math.nextafter(100.0, INF)
    next_times = [0.0, 0.5, 3.0]
    sim = _coordinator(next_times, 1.0)
    rounds = 0
    previous_safe = -INF
    while True:
        safe = sim._plan_bound(target)
        if safe is None:
            break
        assert safe > previous_safe
        previous_safe = safe
        # Every shard executes its events below `safe`; its next event lands
        # at or beyond the window bound.
        next_times = [max(t, safe) for t in next_times]
        _advertise(sim, next_times, 1.0)
        rounds += 1
        assert rounds < 1000
    assert rounds > 0


def test_planner_counts_bounds_past_the_fixed_step_as_jumps():
    # EOTs further out than horizon + min_latency (quiet GC ticks looked
    # through) let the bound jump; an undelivered cross-shard record pulls
    # it back to deliver_at + the destination shard's lookahead.
    target = math.nextafter(100.0, INF)
    sim = _coordinator([1.0, 4.0], 2.0)
    for worker in sim._pool.workers:
        worker.eot = 50.0
    assert sim._plan_bound(target) == 50.0
    assert sim._stats["eot_jumps"] == 1
    sim._pending.append((20.0, 1, b""))
    assert sim._plan_bound(target) == 22.0
    sim._pending.clear()
    for worker in sim._pool.workers:
        worker.eot = INF
    assert sim._plan_bound(target) == target
    assert sim._stats["quiescence_jumps"] == 1


# -- shard assignment --------------------------------------------------------


def test_contiguous_shards_are_balanced_slices():
    shards = assign_shards(["s5", "s1", "s3", "s2", "s4"], 2)
    assert shards == [["s1", "s2", "s3"], ["s4", "s5"]]


def test_more_workers_than_sites_collapses():
    shards = assign_shards(["a", "b"], 8)
    assert shards == [["a"], ["b"]]


# -- quiet-tick gates --------------------------------------------------------


def test_site_quiet_gc_ticks_follows_collector_prediction():
    from ..conftest import make_sim

    sim = make_sim(auto_gc=False)
    site = sim.site("P")
    assert site.quiet_gc_ticks() == 0  # no cached trace yet
    site.run_local_trace()
    assert site.quiet_gc_ticks() > 0
    site.heap.alloc()  # cache invalidated; the next tick may send
    assert site.quiet_gc_ticks() == 0


def test_crashed_site_advertises_no_quiet_ticks():
    from ..conftest import make_sim

    sim = make_sim(auto_gc=False)
    site = sim.site("P")
    site.run_local_trace()
    assert site.quiet_gc_ticks() > 0
    site.crash()
    assert site.quiet_gc_ticks() == 0


def test_moved_epochs_answer_zero_without_scanning_the_outref_table(monkeypatch):
    from ..conftest import make_sim

    sim = make_sim(auto_gc=False)
    site = sim.site("P")
    site.run_local_trace()
    scans = []
    scan = site.outrefs.past_back_threshold
    monkeypatch.setattr(
        site.outrefs, "past_back_threshold", lambda: scans.append(1) or scan()
    )
    assert site.quiet_gc_ticks() > 0
    assert scans  # epochs current: the table is what is left to ask
    del scans[:]
    site.heap.alloc()
    assert site.quiet_gc_ticks() == 0
    assert not scans  # the O(1) epoch compare answered first


def test_quiet_site_with_trigger_eligible_suspect_advertises_no_quiet_ticks():
    from repro.workloads.topology import GraphBuilder

    from ..conftest import make_sim

    sim = make_sim(auto_gc=False)
    builder = GraphBuilder(sim)
    held, remote = builder.obj("P"), builder.obj("Q")
    builder.link(held, remote)
    site = sim.site("P")
    # Q claims a reference to `held` from far beyond the back threshold.
    site.inrefs.ensure(held, source="Q", distance=20)
    site.run_local_trace()
    entry = site.outrefs.get(remote)
    assert entry.is_suspected and entry.distance > entry.back_threshold
    # Every epoch matches the cached trace, so only the table scan says no.
    assert site.collector.predict_quiet_ticks(site._variable_outrefs) > 0
    assert site.quiet_gc_ticks() == 0
