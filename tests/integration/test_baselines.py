"""Tests for the four baseline cycle collectors (section 7; benchmark E6).

Each baseline must (a) collect a distributed garbage cycle, (b) preserve
safety (oracle-checked), and (c) exhibit the drawback the paper cites.
"""

import pytest

from repro import GcConfig
from repro.analysis import Oracle
from repro.baselines import (
    GlobalTraceCollector,
    GroupTraceCollector,
    HughesCollector,
    MigrationCollector,
)
from repro.workloads import GraphBuilder, build_ring_cycle

from ..conftest import make_sim

NO_BT = GcConfig(collector="null")


def cycle_sim(sites, seed=0, gc=NO_BT):
    sim = make_sim(seed=seed, sites=sites, gc=gc)
    workload = build_ring_cycle(sim, list(sites))
    for _ in range(2):
        sim.run_gc_round()
    workload.make_garbage(sim)
    return sim, workload


class TestGlobalTrace:
    def test_collects_cycle(self):
        sim, workload = cycle_sim(["a", "b", "c"])
        oracle = Oracle(sim)
        collector = GlobalTraceCollector(sim, coordinator="a")
        collector.start_round()
        sim.settle()
        oracle.check_safety()
        assert not oracle.garbage_set()
        assert collector.rounds_completed == 1

    def test_safety_preserves_live_objects(self):
        sim, workload = cycle_sim(["a", "b", "c"])
        collector = GlobalTraceCollector(sim, coordinator="a")
        collector.start_round()
        sim.settle()
        assert sim.site("a").heap.contains(workload.root)
        assert sim.site("a").heap.contains(workload.anchor)

    def test_crashed_site_stalls_round_globally(self):
        """The paper's drawback: one dead site blocks all collection."""
        sim, workload = cycle_sim(["a", "b", "c", "d"])
        sim.site("d").crash()  # d does not even contain the cycle
        oracle = Oracle(sim)
        collector = GlobalTraceCollector(sim, coordinator="a")
        collector.start_round()
        sim.run_for(5000.0)
        assert collector.round_in_progress  # never terminates
        assert collector.rounds_completed == 0
        # The cycle is still there.
        assert any(
            sim.site(m.site).heap.contains(m) for m in workload.cycle
        )

    def test_messages_scale_with_all_intersite_refs(self):
        """Global tracing pays for every inter-site reference, garbage or
        not -- unlike back tracing, whose cost scales with the cycle."""
        sim, workload = cycle_sim(["a", "b", "c"])
        b = GraphBuilder(sim)
        # Add a live inter-site chain unrelated to the cycle: marking must
        # walk it hop by hop, paying one batch per hop.
        root2 = b.obj("a", "root2", root=True)
        previous = root2
        for site_id in ("b", "c", "b", "c", "b", "c"):
            extra = b.obj(site_id)
            b.link(previous, extra)
            previous = extra
        before = sim.metrics.snapshot()
        collector = GlobalTraceCollector(sim, coordinator="a")
        collector.start_round()
        sim.settle()
        delta = sim.metrics.snapshot().diff(before)
        # Mark batches cover the live chain too (plus every site pays the
        # start/ack round trip even when it holds no garbage at all).
        assert delta.get("messages.MarkBatch", 0) >= 6
        assert delta.get("messages.StartGlobalMark", 0) == 3


class TestHughes:
    def test_collects_cycle(self):
        sim, workload = cycle_sim(["a", "b", "c"])
        oracle = Oracle(sim)
        collector = HughesCollector(sim, coordinator="a")
        for _ in range(6):
            collector.run_round()
            oracle.check_safety()
            if not oracle.garbage_set():
                break
        assert not oracle.garbage_set()

    def test_live_objects_keep_rising_stamps(self):
        sim, workload = cycle_sim(["a", "b", "c"])
        collector = HughesCollector(sim, coordinator="a")
        for _ in range(6):
            collector.run_round()
        assert sim.site("a").heap.contains(workload.root)
        assert sim.site("a").heap.contains(workload.anchor)

    def test_crashed_site_holds_down_threshold(self):
        sim, workload = cycle_sim(["a", "b", "c", "d"])
        collector = HughesCollector(sim, coordinator="a")
        collector.run_round()
        frozen = collector.last_trace_time["d"]
        sim.site("d").crash()
        # The coordinator cannot even complete a poll (d never replies), so
        # the announced threshold stays at its last value.
        old_threshold = collector.threshold
        for _ in range(4):
            collector.run_round()
        assert collector.threshold == old_threshold
        # The cycle (which became garbage after the last threshold rise)
        # survives everywhere -- the system-wide stall the paper describes.
        assert any(sim.site(m.site).heap.contains(m) for m in workload.cycle)


class TestMigration:
    def test_collects_cycle_by_convergence(self):
        sim, workload = cycle_sim(["a", "b", "c"])
        oracle = Oracle(sim)
        collector = MigrationCollector(sim)
        for _ in range(30):
            collector.run_round()
            oracle.check_safety()
            if not oracle.garbage_set():
                break
        assert not oracle.garbage_set()
        assert collector.objects_migrated >= 1

    def test_migration_pays_object_sized_messages(self):
        sim, workload = cycle_sim(["a", "b", "c"])
        # Make cycle objects fat so migration cost is visible.
        for member in workload.cycle:
            sim.site(member.site).heap.get(member).payload_size = 50
        collector = MigrationCollector(sim)
        oracle = Oracle(sim)
        for _ in range(30):
            collector.run_round()
            if not oracle.garbage_set():
                break
        assert not oracle.garbage_set()
        assert collector.units_migrated >= 50  # at least one fat object moved

    def test_live_suspects_migrate_wastefully(self):
        """A live-but-suspected object gets migrated even though back
        tracing would have left it in place."""
        sim = make_sim(sites=("a", "b"), gc=NO_BT)
        b = GraphBuilder(sim)
        target = b.obj("b", "t")
        holder = b.obj("a", "h", root=True)
        b.link(holder, target)
        # Stale suspicion: force a big distance.
        sim.site("b").inrefs.set_source(target, "a", 99)
        collector = MigrationCollector(sim)
        collector.check_migrations("b")
        sim.settle()
        assert collector.objects_migrated == 1
        # The object now lives at a (under a new id) and is still reachable.
        Oracle(sim).check_safety()
        assert len(sim.site("a").heap) == 2  # the rooted holder + the migrant
        assert len(sim.site("b").heap) == 0


class TestGroupTrace:
    def test_collects_cycle(self):
        sim, workload = cycle_sim(["a", "b", "c"])
        oracle = Oracle(sim)
        collector = GroupTraceCollector(sim)
        for _ in range(30):
            collector.run_round()
            oracle.check_safety()
            if not oracle.garbage_set():
                break
        assert not oracle.garbage_set()
        assert collector.groups_completed >= 1

    def test_group_can_exceed_cycle_sites(self):
        """A cycle pointing into a live chain drags the chain's sites into
        the group -- the locality failure the paper cites."""
        sim = make_sim(sites=("a", "b", "c", "d"), gc=NO_BT)
        b = GraphBuilder(sim)
        b.obj("a", "root", root=True)
        p, q = b.obj("a", "p"), b.obj("b", "q")
        b.link_cycle([p, q])
        # The cycle points into a live chain spanning c and d.
        chain_c, chain_d = b.obj("c"), b.obj("d")
        b.link(q, chain_c)
        b.link(chain_c, chain_d)
        keeper = b.obj("c", "keeper", root=True)
        b.link(keeper, chain_c)
        for _ in range(2):
            sim.run_gc_round()
        oracle = Oracle(sim)
        collector = GroupTraceCollector(sim)
        for _ in range(30):
            collector.run_round()
            oracle.check_safety()
            if not oracle.garbage_set():
                break
        assert not oracle.garbage_set()
        assert max(collector.group_sizes) >= 3  # cycle spans only 2 sites
        assert sim.site("c").heap.contains(chain_c)
        assert sim.site("d").heap.contains(chain_d)

    def test_crashed_member_stalls_group(self):
        sim, workload = cycle_sim(["a", "b", "c"])
        collector = GroupTraceCollector(sim)
        # Grow suspicion first.
        for _ in range(14):
            sim.run_gc_round()
        sim.site("c").crash()
        for site_id in ("a", "b"):
            if collector.maybe_initiate(site_id):
                break
        sim.run_for(5000.0)
        assert collector.group_in_progress or collector.groups_completed == 0
        assert any(sim.site(m.site).heap.contains(m) for m in workload.cycle if m.site != "c")
