"""Tests for the central-service baseline (section 7).

Trial deletion is the ``termination`` backend; its section 7 cases live in
``tests/unit/test_termination_collector.py``.
"""

from repro import GcConfig
from repro.analysis import Oracle
from repro.baselines import CentralServiceCollector
from repro.workloads import GraphBuilder, build_ring_cycle

from ..conftest import make_sim

NO_BT = GcConfig(collector="null")


def cycle_sim(sites, seed=0):
    sim = make_sim(seed=seed, sites=sites, gc=NO_BT)
    workload = build_ring_cycle(sim, list(sites))
    for _ in range(2):
        sim.run_gc_round()
    workload.make_garbage(sim)
    return sim, workload


class TestCentralService:
    def test_collects_cycle(self):
        sim, workload = cycle_sim(["a", "b", "c"])
        oracle = Oracle(sim)
        collector = CentralServiceCollector(sim, service="a")
        for _ in range(6):
            collector.run_round()
            oracle.check_safety()
            if not oracle.garbage_set():
                break
        assert not oracle.garbage_set()
        assert collector.inrefs_flagged >= 3

    def test_live_objects_survive(self):
        sim, workload = cycle_sim(["a", "b", "c"])
        collector = CentralServiceCollector(sim, service="a")
        for _ in range(4):
            collector.run_round()
        assert sim.site("a").heap.contains(workload.root)
        assert sim.site("a").heap.contains(workload.anchor)
        Oracle(sim).check_safety()

    def test_crashed_site_stalls_every_round(self):
        sim, workload = cycle_sim(["a", "b", "c", "d"])
        sim.site("d").crash()  # a bystander, not on the cycle
        oracle = Oracle(sim)
        collector = CentralServiceCollector(sim, service="a")
        for _ in range(4):
            collector.run_round()
        assert collector.rounds_completed == 0
        assert oracle.garbage_set()  # nothing collected anywhere

    def test_crashed_service_stalls_everything(self):
        sim, workload = cycle_sim(["a", "b", "c"])
        collector = CentralServiceCollector(sim, service="a")
        sim.site("a").crash()
        collector.start_round()
        sim.run_for(3000.0)
        assert collector.rounds_completed == 0

    def test_service_is_message_hotspot(self):
        """Summaries scale with the system's ioref population, all of it
        converging on one site."""
        sim, workload = cycle_sim(["a", "b", "c", "d"])
        # Extra live inter-site structure: the service pays for it too.
        b = GraphBuilder(sim)
        root = b.obj("b", root=True)
        previous = root
        for site_id in ("c", "d", "c", "d"):
            nxt = b.obj(site_id)
            b.link(previous, nxt)
            previous = nxt
        before = sim.metrics.snapshot()
        collector = CentralServiceCollector(sim, service="a")
        collector.run_round()
        delta = sim.metrics.snapshot().diff(before)
        # Every site sent a summary; every site got a request.
        assert delta.get("messages.SummaryRequest", 0) == 4
        assert delta.get("messages.SummaryReply", 0) == 4
        # Summary volume (units) reflects all iorefs, live ones included.
        units = sum(
            v for k, v in delta.items() if k == "messages.units"
        )
        assert units > 8

    def test_epoch_guard_skips_stale_flags(self):
        sim, workload = cycle_sim(["a", "b"])
        collector = CentralServiceCollector(sim, service="a")
        collector.start_round()
        # While summaries are in flight, run an extra local trace at b: its
        # epoch moves on, so b must skip the flag command.
        sim.run_for(3.0)
        sim.site("b").run_local_trace()
        sim.settle()
        # Nothing at b was flagged this round (epoch mismatch) -- but the
        # cycle is still collected by later rounds.
        oracle = Oracle(sim)
        for _ in range(6):
            collector.run_round()
            oracle.check_safety()
            if not oracle.garbage_set():
                break
        assert not oracle.garbage_set()

