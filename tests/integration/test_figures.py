"""Integration tests reproducing the paper's figures (F1-F6 in DESIGN.md)."""

from repro import GcConfig
from repro.analysis import Oracle
from repro.core.backtrace.messages import TraceOutcome
from repro.harness.scenarios import (
    build_figure1,
    build_figure2,
    build_figure3,
    build_figure5,
)
from repro.mutator import Mutator


def run_rounds(sim, count):
    for _ in range(count):
        sim.run_gc_round()


class TestFigure1:
    """Reference listing: locality works, inter-site cycles leak."""

    def test_acyclic_garbage_collected_via_updates(self):
        scenario = build_figure1()
        sim = scenario.sim
        run_rounds(sim, 2)
        # Q collected d and reported e; P then dropped inref e and collected e.
        assert not sim.site("Q").heap.contains(scenario["d"])
        assert not sim.site("P").heap.contains(scenario["e"])
        assert scenario["e"] not in sim.site("P").inrefs

    def test_cycle_never_collected_without_backtracing(self):
        gc = GcConfig(collector="null")
        scenario = build_figure1(gc=gc)
        sim = scenario.sim
        run_rounds(sim, 25)
        assert sim.site("Q").heap.contains(scenario["f"])
        assert sim.site("R").heap.contains(scenario["g"])
        # ... and their distance estimates have grown without bound
        # (section 3's signature of cyclic garbage).
        assert sim.site("Q").inrefs.require(scenario["f"]).distance > 20

    def test_cycle_collected_with_backtracing(self):
        scenario = build_figure1()
        sim = scenario.sim
        oracle = Oracle(sim)
        for _ in range(30):
            sim.run_gc_round()
            oracle.check_safety()
            if not oracle.garbage_set():
                break
        assert not oracle.garbage_set()
        # Live objects all survived.
        for label in ("a", "b", "c"):
            assert sim.site(scenario[label].site).heap.contains(scenario[label])

    def test_locality_site_uninvolved_in_cycle_not_contacted(self):
        """The f,g cycle lives on Q and R: after distances converge, its
        collection involves no back-trace message to P."""
        scenario = build_figure1()
        sim = scenario.sim
        oracle = Oracle(sim)
        # Let acyclic garbage drain and distances grow first.
        run_rounds(sim, 3)
        before = sim.metrics.snapshot()
        for _ in range(30):
            sim.run_gc_round()
            if not oracle.garbage_set():
                break
        assert not oracle.garbage_set()
        # All back-trace traffic stayed within {Q, R}: P neither initiated
        # nor served any back call (P's engine never created a record).
        assert sim.site("P").engine.active_trace_count == 0
        assert sim.metrics.count("backtrace.started") >= 1


class TestFigure2:
    """Insets and the start-from-outref rule."""

    def test_garbage_cycle_fully_collected(self):
        scenario = build_figure2()
        sim = scenario.sim
        oracle = Oracle(sim)
        assert oracle.garbage_set()  # the figure's structure is unrooted
        for _ in range(30):
            sim.run_gc_round()
            oracle.check_safety()
            if not oracle.garbage_set():
                break
        assert not oracle.garbage_set()

    def test_inset_of_c_contains_both_inrefs(self):
        scenario = build_figure2()
        sim = scenario.sim
        # Force suspicion and compute back info at Q.
        for entry in sim.site("Q").inrefs.entries():
            for source in entry.sources:
                entry.sources[source] = 9
        sim.site("Q").run_local_trace()
        entry = sim.site("Q").outrefs.require(scenario["c"])
        assert entry.inset == {scenario["a"], scenario["b"]}
        entry_d = sim.site("Q").outrefs.require(scenario["d"])
        assert entry_d.inset == {scenario["b"]}


class TestFigure3:
    """Branching back trace over a live structure returns Live."""

    def test_live_structure_survives_backtracing_forever(self):
        scenario = build_figure3()
        sim = scenario.sim
        oracle = Oracle(sim)
        assert not oracle.garbage_set()
        run_rounds(sim, 30)
        oracle.check_safety()
        for label in ("a", "b", "c", "d"):
            assert sim.site(scenario[label].site).heap.contains(scenario[label])

    def test_live_suspects_stop_generating_traces(self):
        """Section 4.3: visits bump back thresholds, so live suspects go
        quiet once their thresholds exceed their (stable) distances."""
        gc = GcConfig(assumed_cycle_length=1)  # T2 = 5: triggers early
        scenario = build_figure3(gc=gc)
        sim = scenario.sim
        run_rounds(sim, 20)
        started_midway = sim.metrics.count("backtrace.started")
        assert started_midway >= 0
        run_rounds(sim, 15)
        # After enough threshold bumps no new traces start.
        stable = sim.metrics.count("backtrace.started")
        run_rounds(sim, 10)
        assert sim.metrics.count("backtrace.started") == stable

    def test_becomes_garbage_after_cutting_long_path(self):
        scenario = build_figure3()
        sim = scenario.sim
        oracle = Oracle(sim)
        run_rounds(sim, 6)  # distances converge to true values
        sim.site("S").mutator_remove_ref(scenario["hop"], scenario["a"])
        for _ in range(40):
            sim.run_gc_round()
            oracle.check_safety()
            if not oracle.garbage_set():
                break
        assert not oracle.garbage_set()


class TestFigure5:
    """Transfer barrier keeps a concurrent mutation safe."""

    def _run_mutation(self, gc: GcConfig):
        scenario = build_figure5(gc=gc)
        sim = scenario.sim
        # Let distances converge: the remote loop c,d,e,f,z,x,g becomes
        # suspected (true distances 2..6 exceed nothing yet -- force more
        # rounds so estimates cross the threshold where they should).
        for _ in range(8):
            sim.run_gc_round()
        mutator = Mutator(sim, "m", scenario["a"])
        # Traverse the old path: a -> b (P->Q), b -> c (Q->R), c -> d,
        # d -> e, e -> f (the barrier moment at Q), f -> z.
        for label in ("b", "c", "d", "e", "f", "z"):
            mutator.traverse(scenario[label])
            sim.settle()
        # Copy z into y: the mutator walks back to y by re-entering at the
        # root (a variable kept z pinned meanwhile).
        mutator.set_variable("zref", scenario["z"])
        mutator._arrived(scenario["a"])  # re-enter via persistent root
        mutator.traverse(scenario["b"])
        sim.settle()
        mutator.traverse(scenario["y"])
        mutator.store_ref(scenario["z"], holder=scenario["y"])
        mutator.clear_variable("zref")
        # Delete the old path edge d -> e at S.
        sim.site("S").mutator_remove_ref(scenario["d"], scenario["e"])
        return scenario, sim, mutator

    def test_with_barrier_z_survives(self):
        scenario, sim, mutator = self._run_mutation(GcConfig())
        oracle = Oracle(sim)
        for _ in range(30):
            sim.run_gc_round()
            oracle.check_safety()
        # z is live through a -> b -> y -> z and was never collected; so are
        # x and g (reachable from z) and d (still reachable via c -> d).
        for label in ("z", "x", "d"):
            assert sim.site(scenario[label].site).heap.contains(scenario[label])
        assert sim.site("P").heap.contains(scenario["g"])
        # The severed tail of the old path (e and f) was collected.
        assert not sim.site("R").heap.contains(scenario["e"])
        assert not sim.site("Q").heap.contains(scenario["f"])

    def test_barrier_cleans_f_and_outset_g(self):
        scenario = build_figure5()
        sim = scenario.sim
        for _ in range(8):
            sim.run_gc_round()
        q = sim.site("Q")
        f_entry = q.inrefs.require(scenario["f"])
        assert f_entry.is_suspected(sim.config.gc.suspicion_threshold)
        g_entry = q.outrefs.require(scenario["g"])
        assert not g_entry.is_clean
        assert g_entry.inset == {scenario["f"]}
        mutator = Mutator(sim, "m", scenario["a"])
        for label in ("b", "c", "d", "e", "f"):
            mutator.traverse(scenario[label])
            sim.settle()
        assert f_entry.is_clean(sim.config.gc.suspicion_threshold)
        assert q.outrefs.require(scenario["g"]).is_clean
