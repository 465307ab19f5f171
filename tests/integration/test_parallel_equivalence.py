"""Sharded parallel engine vs sequential engine: byte-for-byte equivalence.

The headline requirement of :mod:`repro.sim.parallel`: a parallel run must
produce the same final heap contents, inref/outref tables, and collection
survivors as a sequential run of the same seed.  These tests run twin
scenarios -- steady-state churn with auto GC plus explicit collection
rounds, with and without a mid-run site crash -- once on the sequential
engine and once sharded across worker processes, then compare the full
JSON-serialized snapshots for equality.  Every twin is additionally audited
by the oracle, which reads the shards' live state through ``audit_state()``.

Both twins run the same config: every engine draws each pair's latencies
from that pair's own RNG stream, so nothing opts in.
"""

import json

import pytest

from repro import GcConfig, NetworkConfig, Simulation, SimulationConfig
from repro.analysis import Oracle, graph_snapshot, to_dot
from repro.errors import SimulationError
from repro.sim.parallel import ParallelSimulation
from repro.workloads import ChurnConfig, GraphBuilder, SiteChurn, build_ring_cycle

SITES = [f"s{i:02d}" for i in range(16)]
CHURN_UNTIL = 400.0

# Low thresholds (as in test_cache_equivalence) so the doomed ring's
# distances cross the back threshold within a few explicit GC rounds.
GC = dict(
    local_trace_period=100.0,
    local_trace_period_jitter=25.0,
    suspicion_threshold=2,
    assumed_cycle_length=2,
    back_threshold_increment=1,
)
NETWORK = dict(min_latency=5.0, max_latency=20.0)


def _build(workers, seed, sites=SITES, gc=GC):
    config = SimulationConfig(
        seed=seed,
        gc=GcConfig(**gc),
        network=NetworkConfig(**NETWORK),
        parallel_workers=workers,
    )
    sim = Simulation.create(config)
    sim.add_sites(sites, auto_gc=True)
    return sim


def _snapshot_bytes(sim):
    return json.dumps(graph_snapshot(sim), sort_keys=True)


def _final_state(sim):
    """(snapshot_json, sorted non-zero counters) of either engine; closes it."""
    snapshot = _snapshot_bytes(sim)
    counters = sim.merged_metrics()._counters
    sim.close()
    return snapshot, sorted((name, n) for name, n in counters.items() if n)


def _run_scenario(workers, seed, crash=False):
    """The e13-shaped workload: churn + doomed ring + GC rounds.

    Returns (snapshot_json, trace_outcomes, churn_ops).  Every twin is
    oracle-audited along the way.
    """
    sim = _build(workers, seed)
    doomed = build_ring_cycle(sim, SITES[:6])
    build_ring_cycle(sim, SITES[::2])  # a live ring that must survive
    churn = SiteChurn(sim, SITES, ChurnConfig(mean_interval=4.0))
    churn.start(until=CHURN_UNTIL)
    oracle = Oracle(sim)

    sim.run_for(200.0)
    if crash:
        # A bystander off the doomed ring: its crash drops messages (and its
        # heap) but must not change what the collector decides elsewhere.
        sim.site("s09").crash()
        sim.run_for(120.0)
        sim.site("s09").recover()
    sim.run_for(CHURN_UNTIL)  # churn deadline passes; queues drain

    sim.quiesce_auto_gc()
    sim.settle(quiet_time=30.0, max_rounds=3000)
    doomed.make_garbage(sim)
    for _ in range(12):
        sim.run_gc_round()
        oracle.check_safety()
    sim.settle(quiet_time=30.0, max_rounds=3000)

    oracle.check_safety()
    # The doomed ring must actually have been collected: the run is only
    # a meaningful equivalence witness if the collector did real work.
    state = sim.audit_state()
    for member in doomed.cycle:
        assert member not in state.sites[member.site].objects
    if not crash:
        assert not oracle.garbage_set()
    else:
        # A crashed-and-recovered bystander may retain a few objects
        # conservatively (inref sources lost with the crash); residual
        # garbage elsewhere would be a real bug.
        assert all(oid.site == "s09" for oid in oracle.garbage_set())
    result = (
        _snapshot_bytes(sim),
        sim.trace_outcomes,
        sim.merged_metrics().count("churn.ops"),
    )
    sim.close()
    return result


@pytest.mark.parametrize("workers", [2, 4])
def test_parallel_matches_sequential_byte_for_byte(workers):
    seq_snapshot, seq_outcomes, seq_ops = _run_scenario(1, seed=11)
    par_snapshot, par_outcomes, par_ops = _run_scenario(workers, seed=11)
    assert par_snapshot == seq_snapshot
    assert par_outcomes == seq_outcomes
    assert par_ops == seq_ops


def test_parallel_fault_injection_matches_sequential():
    seq_snapshot, seq_outcomes, seq_ops = _run_scenario(1, seed=23, crash=True)
    par_snapshot, par_outcomes, par_ops = _run_scenario(4, seed=23, crash=True)
    assert par_snapshot == seq_snapshot
    assert par_outcomes == seq_outcomes
    assert par_ops == seq_ops


def _run_partitioned(workers, start, heal):
    sites = [f"s{i}" for i in range(6)]
    sim = _build(workers, 5, sites, gc={})
    SiteChurn(sim, sites, ChurnConfig()).start(until=900.0)
    if start:
        sim.run_until(start)
    sim.partition(set(sites[:3]), set(sites[3:]))
    sim.run_until(heal)
    sim.heal_partition()
    sim.run_until(900.0)
    return _final_state(sim)


@pytest.mark.parametrize(
    "start, heal, drops", [(300.0, 600.0, 150), (0.0, 300.0, 70)]
)
def test_partitions_reach_the_shard_workers(start, heal, drops):
    # A partition applied after the fork is broadcast to the workers (it
    # used to change only the coordinator's stale network: zero drops);
    # one applied before the first run is inherited through the fork.
    seq = _run_partitioned(1, start, heal)
    assert dict(seq[1])["messages.dropped.partition"] == drops
    for workers in (2, 4):
        assert _run_partitioned(workers, start, heal) == seq


def _run_wide_roots(workers):
    """Each root holds 6,000 references to objects on the site two away, so
    the first full update to that site is one ~84 KB record."""
    sites = [f"s{i}" for i in range(4)]
    sim = _build(workers, 5, sites, gc={})
    builder = GraphBuilder(sim)
    for index, site_id in enumerate(sites):
        root = builder.obj(site_id, root=True)
        for target in builder.objs(sites[(index + 2) % 4], 6000):
            builder.link(root, target)
    sim.run_for(1500.0)
    stats = sim.coordination_stats() if workers > 1 else None
    return _final_state(sim), stats


def test_records_larger_than_the_pipe_buffer_cross_intact():
    # Pipe back-pressure: a command or reply blob bigger than the OS pipe
    # buffer blocks its writer until the other end reads, so it only works
    # because coordinator and workers never write to each other at once.
    seq, _ = _run_wide_roots(1)
    for workers in (2, 4):
        state, stats = _run_wide_roots(workers)
        assert state == seq
        assert stats["cross_shard_messages"] == 8
        assert stats["bytes_sent"] + stats["bytes_recv"] > 4 * 80_000


# -- fallback and guardrail behaviour ----------------------------------------


def test_zero_min_latency_falls_back_to_sequential_with_warning():
    config = SimulationConfig(
        network=NetworkConfig(min_latency=0.0, max_latency=10.0),
        parallel_workers=4,
    )
    with pytest.warns(RuntimeWarning, match="min_latency"):
        sim = Simulation.create(config)
    assert isinstance(sim, ParallelSimulation)
    assert not sim.parallel_active
    sim.add_sites(["P", "Q"], auto_gc=False)
    # Runs fine on the inherited sequential path; nothing ever forks.
    sim.site("P").heap.alloc(persistent_root=True)
    sim.run_for(10.0)
    assert not sim._forked


def test_single_shard_degrades_to_sequential_with_warning():
    config = SimulationConfig(
        network=NetworkConfig(**NETWORK), parallel_workers=4
    )
    sim = Simulation.create(config)
    sim.add_site("only", auto_gc=False)
    with pytest.warns(RuntimeWarning, match="one shard"):
        sim.run_for(5.0)
    assert not sim.parallel_active and not sim._forked


def test_workers_one_is_byte_identical_to_sequential_engine():
    # Deliberate direct construction: the subject is the ParallelSimulation
    # class itself on the workers=1 path, which Simulation.create would
    # never hand back.
    # parallel_workers=1 must take the existing sequential path unchanged:
    # same classes, same RNG streams, hence byte-identical final state
    # against a plain Simulation.
    def run(cls):
        sim = cls(SimulationConfig(seed=5))
        sim.add_sites(SITES[:6], auto_gc=True)
        doomed = build_ring_cycle(sim, SITES[:4])
        sim.run_for(150.0)
        doomed.make_garbage(sim)
        for _ in range(4):
            sim.run_gc_round()
        assert not getattr(sim, "_forked", False)
        return _snapshot_bytes(sim)

    assert run(ParallelSimulation) == run(Simulation)


def test_post_fork_guardrails():
    sim = _build(2, seed=1)
    sim.run_for(20.0)  # forks
    assert sim._forked
    with pytest.raises(SimulationError, match="step"):
        sim.step()
    with pytest.raises(SimulationError, match="add sites"):
        sim.add_site("late")
    proxy = sim.site(SITES[0])
    with pytest.raises(AttributeError, match="snapshot"):
        proxy.heap
    assert proxy.crashed is False
    # The coordinator's own network is a stale pre-fork copy now.
    with pytest.raises(SimulationError, match=r"Simulation\.partition\(\)"):
        sim.network.partition({SITES[0]})
    with pytest.raises(SimulationError, match="max_events"):
        sim.run_for(10.0, max_events=100)
    sim.close()
    with pytest.raises(SimulationError, match="closed"):
        sim.run_for(10.0)
    sim.close()  # idempotent


# -- traffic accounting --------------------------------------------------------


def test_coordination_stats_count_packed_traffic():
    sim = _build(4, seed=3)
    churn = SiteChurn(sim, SITES, ChurnConfig(mean_interval=4.0))
    churn.start(until=250.0)
    sim.run_for(300.0)
    stats = sim.coordination_stats()
    sim.close()
    assert stats["bytes_sent"] > 0 and stats["bytes_recv"] > 0
    # The message count is pinned at 1ef2097 for this scenario and seed,
    # the plan at what the lock-step planner needs (a planner change may
    # lower it, never raise it).  Every routed message is accounted exactly
    # once, and one round trip per window and align is all the coordination
    # there is.
    pinned = dict(
        windows=55, aligns=1, commands_sent=224, cross_shard_messages=600,
    )
    assert {key: stats[key] for key in pinned} == pinned
    assert stats["commands_sent"] == 4 * (stats["windows"] + stats["aligns"])


def _exports(workers):
    """``graph_snapshot`` and ``to_dot`` after a default-config churn run."""
    sites = [f"s{i}" for i in range(4)]
    sim = Simulation.create(SimulationConfig(seed=3, parallel_workers=workers))
    sim.add_sites(sites, auto_gc=True)
    SiteChurn(sim, sites).start(until=1500.0)
    sim.run_for(2000.0)
    exports = graph_snapshot(sim), to_dot(sim)
    sim.close()
    return exports


def test_exports_of_a_forked_run_equal_the_sequential_twins():
    # The free functions read the workers' live heaps through the engine,
    # not the coordinator's pre-fork copies (those read 4 objects here,
    # against 273 live).
    sequential = _exports(1)
    assert sum(len(site["objects"]) for site in sequential[0]["sites"].values()) > 200
    assert _exports(2) == sequential


def test_snapshot_results_are_independent_of_each_other():
    # Editing one snapshot must not change the next: the sequential
    # graph_snapshot builds fresh dicts on every call, and so must the
    # sharded engine.
    sim = _build(2, seed=7)
    build_ring_cycle(sim, SITES[:4])
    sim.run_for(20.0)
    try:
        first = sim.snapshot()
        assert len(first["sites"]["s00"]["objects"]) == 3
        first["sites"]["s00"]["objects"].clear()
        assert len(sim.snapshot()["sites"]["s00"]["objects"]) == 3
    finally:
        sim.close()


# -- persistent pool lifecycle -----------------------------------------------


def test_worker_crash_mid_run_raises_cleanly():
    import os
    import signal

    sim = _build(4, seed=5)
    sim.run_for(20.0)  # forks
    assert sim._forked
    victim = sim._pool.workers[1].process
    os.kill(victim.pid, signal.SIGKILL)
    with pytest.raises(SimulationError, match="died"):
        # The dead pipe raises EOFError on the next exchange -- a prompt,
        # attributable error instead of a hang.
        sim.run_for(500.0)
    # Every worker was reaped with the failure.
    for worker in sim._pool.workers:
        assert not worker.process.is_alive()
    sim.close()  # idempotent after a crash teardown


def test_worker_error_leaves_the_reply_streams_aligned():
    # A command that fails in the workers must not leave any reply unread:
    # the next exchange would be handed the stale one (the next
    # all_object_ids() re-raised the old error, and a following snapshot()
    # died on the oids payload).
    sim = _build(2, seed=7)
    build_ring_cycle(sim, SITES[:4])
    sim.run_for(20.0)  # forks
    oids = sim.all_object_ids()
    snapshot = sim.snapshot()
    with pytest.raises(SimulationError, match="unknown worker command"):
        sim._broadcast(("bogus",))
    assert sim.all_object_ids() == oids
    assert sim.snapshot() == snapshot
    assert sim.total_objects() == len(oids)
    assert sim.run_for(20.0) >= 0  # shards are still at a common time
    sim.close()


def test_failed_window_closes_the_engine():
    sim = _build(2, seed=8)

    def boom():
        raise RuntimeError("boom at 30")

    sim.scheduler.schedule_at(30.0, boom, label="boom", site=SITES[0])
    with pytest.raises(SimulationError, match="boom at 30"):
        sim.run_for(50.0)
    # One shard ran the window and one did not: nothing later could be
    # right, so the pool is reaped and every later call says so.
    for worker in sim._pool.workers:
        assert not worker.process.is_alive()
    for call in (sim.snapshot, sim.all_object_ids, sim.total_objects,
                 lambda: sim.run_for(1.0)):
        with pytest.raises(SimulationError, match="closed"):
            call()
    sim.close()  # idempotent


def _assert_reaped_and_closed(sim):
    for worker in sim._pool.workers:
        assert not worker.process.is_alive()
    with pytest.raises(SimulationError, match="closed"):
        sim.run_for(10.0)


def test_garbage_record_in_a_command_closes_the_engine():
    # A corrupt bucket on its way into a worker: the worker's stash refuses
    # it, the error comes back as the window's reply, and the pool is reaped.
    sim = _build(2, seed=7)
    build_ring_cycle(sim, SITES[:4])
    sim.run_for(20.0)  # forks
    dst = sim._site_to_worker[SITES[0]]
    sim._pending.append((sim.now + 10.0, dst, b"\xff" * 7))
    with pytest.raises(SimulationError, match="shard worker failed"):
        sim.run_for(50.0)
    _assert_reaped_and_closed(sim)


def test_truncated_reply_blob_closes_the_engine():
    # A corrupt bucket on its way out of a worker (forged here by cutting
    # the last bytes off a bucket): the coordinator forwards it unopened,
    # and the destination worker's stash refuses it.
    from repro.gc.update import UpdateRefreshRequest
    from repro.net.message import Message
    from repro.sim.parallel import _pack_buckets

    sim = _build(2, seed=7)
    build_ring_cycle(sim, SITES[:4])
    sim.run_for(20.0)  # forks
    pool = sim._pool
    recv = pool.recv
    message = Message(SITES[0], SITES[15], UpdateRefreshRequest())
    [(dst, first_at, count, bucket)] = _pack_buckets(
        [(1e9, message)], sim._site_to_worker
    )

    def truncating_recv(worker):
        reply = recv(worker)
        forged = [(dst, first_at, count, bucket[:-3])]
        return reply[:2] + (forged,) + reply[3:]

    pool.recv = truncating_recv
    with pytest.raises(SimulationError, match="truncated"):
        # The bucket is queued unopened; the exchange after the reply that
        # carried it hands it to its destination.
        for _ in range(2):
            sim.run_for(50.0)
    _assert_reaped_and_closed(sim)


def test_failed_worker_bring_up_closes_the_engine(monkeypatch):
    from repro.net.network import Network

    def refuse(self, sites, outbox):
        raise RuntimeError("no shard for you")

    monkeypatch.setattr(Network, "attach_shard", refuse)
    sim = _build(2, seed=9)
    with pytest.raises(SimulationError, match="no shard for you"):
        sim.run_for(10.0)
    for worker in sim._pool.workers:
        assert not worker.process.is_alive()
    with pytest.raises(SimulationError, match="closed"):
        sim.run_for(10.0)


def test_close_reaps_children_and_context_manager_closes():
    sim = _build(2, seed=6)
    sim.run_for(20.0)
    processes = [worker.process for worker in sim._pool.workers]
    assert all(process.is_alive() for process in processes)
    sim.close()
    assert all(not process.is_alive() for process in processes)

    with _build(2, seed=6) as sim2:
        sim2.run_for(20.0)
        processes = [worker.process for worker in sim2._pool.workers]
    assert all(not process.is_alive() for process in processes)
    with pytest.raises(SimulationError, match="closed"):
        sim2.run_for(1.0)
