"""Safety of the transfer barrier and the clean rule under races.

The centrepiece is a counterfactual: with the transfer barrier disabled, a
mutation concurrent with back tracing collects a live object (the oracle
catches the dangling reference); with the barrier enabled the same schedule
is safe.  This demonstrates the barrier is load-bearing, not ceremonial.

Topology (Figure 5 extended so the suspected region closes a cross-site
cycle, which is when stale insets actually bite):

    a@P (root) -> b@Q -> y          (clean spine)
    rootR@R -> e@R -> f@Q           (old path into the cycle)
    f -> z -> x -> g@P -> f         (cross-site cycle Q <-> P)

The mutator traverses e -> f (barrier moment), copies z into y (new clean
path), then e -> f is deleted.  A back trace from Q's outref g sees the stale
inset {f}; without the barrier it confirms the live inref g@P as garbage.
"""

import pytest

from repro import GcConfig
from repro.analysis import Oracle
from repro.core.backtrace.messages import TraceOutcome
from repro.errors import OracleError
from repro.mutator import Mutator
from repro.workloads import GraphBuilder

from ..conftest import make_sim

SUSPECT = 9


def build_race_topology(gc: GcConfig, seed: int = 0):
    sim = make_sim(seed=seed, sites=("P", "Q", "R"), gc=gc)
    b = GraphBuilder(sim)
    b.obj("P", "a", root=True)
    b.obj("P", "g")
    b.obj("Q", "b")
    b.obj("Q", "y")
    b.obj("Q", "f")
    b.obj("Q", "z")
    b.obj("Q", "x")
    b.obj("R", "rootR", root=True)
    b.obj("R", "e")
    b.link("a", "b")
    b.link("b", "y")
    b.link("rootR", "e")
    b.link("e", "f")
    b.link("f", "z")
    b.link("z", "x")
    b.link("x", "g")
    b.link("g", "f")
    return sim, b


def prepare_stale_suspicion(sim, b):
    """Make the f/z/x/g cycle suspected with computed (soon stale) insets."""
    for site in sim.site("Q").inrefs.require(b["f"]).sources:
        sim.site("Q").inrefs.set_source(b["f"], site, SUSPECT)
    sim.site("P").inrefs.set_source(b["g"], "Q", SUSPECT)
    sim.site("Q").run_local_trace()
    sim.site("P").run_local_trace()
    sim.settle()
    # Re-force suspicion (the traces re-propagated some distances).
    for site_id, label in (("Q", "f"), ("P", "g")):
        entry = sim.sites[site_id].inrefs.require(b[label])
        for source in entry.sources:
            entry.table.set_source(entry.target, source, SUSPECT)
    assert sim.site("Q").outrefs.require(b["g"]).inset == {b["f"]}
    assert sim.site("P").outrefs.require(b["f"]).inset == {b["g"]}


def run_mutation_then_trace(sim, b):
    """The racy schedule: traverse, copy, delete, then back trace from g."""
    mutator = Mutator(sim, "m", b["rootR"])
    mutator.traverse(b["e"], check_held=True)
    mutator.traverse(b["f"])  # inter-site hop R -> Q: the barrier moment
    sim.settle()
    mutator.traverse(b["z"])
    mutator.set_variable("zref", b["z"])
    # Re-enter at the root and walk to y, then copy z in (local copy: no
    # barrier fires here, by design -- section 6.1.1).
    mutator._arrived(b["a"])
    mutator.traverse(b["b"])
    sim.settle()
    mutator.traverse(b["y"])
    mutator.store_ref(b["z"], holder=b["y"])
    mutator.clear_variable("zref")
    # Delete the old path and let R's trace propagate the removal.
    sim.site("R").mutator_remove_ref(b["e"], b["f"])
    sim.site("R").run_local_trace()
    sim.settle()
    # The stale-information back trace from Q's outref g.
    sim.site("Q").engine.start_trace(b["g"])
    sim.settle()
    # Local traces act on whatever was flagged.
    sim.site("Q").run_local_trace()
    sim.site("P").run_local_trace()
    sim.settle()
    return mutator


def test_without_barrier_live_object_is_lost():
    """Counterfactual: the unsafe system really is unsafe."""
    gc = GcConfig(enable_transfer_barrier=False)
    sim, b = build_race_topology(gc)
    prepare_stale_suspicion(sim, b)
    run_mutation_then_trace(sim, b)
    # g@P is live (a -> b -> y -> z -> x -> g) but was collected.
    assert not sim.site("P").heap.contains(b["g"])
    with pytest.raises(OracleError):
        Oracle(sim).check_safety()


def test_with_barrier_same_schedule_is_safe():
    gc = GcConfig()
    sim, b = build_race_topology(gc)
    prepare_stale_suspicion(sim, b)
    run_mutation_then_trace(sim, b)
    Oracle(sim).check_safety()
    assert sim.site("P").heap.contains(b["g"])
    assert sim.site("Q").heap.contains(b["z"])
    # The trace (if it ran at all against the cleaned iorefs) returned Live.
    verdicts = [outcome[3] for outcome in sim.trace_outcomes]
    assert TraceOutcome.GARBAGE not in verdicts
    # And the cycle is later collected once it truly becomes garbage.
    oracle = Oracle(sim)
    sim.site("Q").mutator_remove_ref(b["y"], b["z"])
    for _ in range(40):
        sim.run_gc_round()
        oracle.check_safety()
        if not oracle.garbage_set():
            break
    assert not oracle.garbage_set()


@pytest.mark.parametrize("seed", range(8))
def test_figure6_race_interleavings_are_safe(seed):
    """Figure 6: vary message timing; the clean rule must keep every
    interleaving of {mutator traversal, back trace branches, local traces}
    safe."""
    gc = GcConfig()
    sim, b = build_race_topology(gc, seed=seed)
    prepare_stale_suspicion(sim, b)
    oracle = Oracle(sim)
    # Fire the back trace *before* the mutation's messages land, so branches
    # and the mutator hop race across the network.
    mutator = Mutator(sim, "m", b["rootR"])
    mutator.traverse(b["e"], check_held=True)
    sim.site("Q").engine.start_trace(b["g"])
    mutator.traverse(b["f"])  # hop in flight while trace is active
    sim.run_for(2.0)
    sim.settle()
    mutator.when_arrived(lambda: None)
    if not mutator.in_transit and mutator.position == b["f"]:
        mutator.traverse(b["z"])
        mutator.set_variable("zref", b["z"])
        mutator._arrived(b["a"])
        mutator.traverse(b["b"])
        sim.settle()
        mutator.traverse(b["y"])
        mutator.store_ref(b["z"], holder=b["y"])
        mutator.clear_variable("zref")
    sim.site("R").mutator_remove_ref(b["e"], b["f"])
    for _ in range(6):
        sim.run_gc_round()
        oracle.check_safety()
    # z and g must be alive iff the copy landed; either way no live object
    # was collected (check_safety above) and the system converges.
    for _ in range(40):
        sim.run_gc_round()
        oracle.check_safety()
        if not oracle.garbage_set():
            break
    assert not oracle.garbage_set()
