"""Unit tests for the mutator agent and random workload."""

import pytest

from repro.errors import MutatorError
from repro.mutator import Mutator, RandomWorkload, WorkloadConfig
from repro.workloads import GraphBuilder
from repro.analysis import Oracle

from ..conftest import make_sim


def setup_two_sites():
    sim = make_sim(sites=("P", "Q"))
    b = GraphBuilder(sim)
    home = b.obj("P", "home", root=True)
    local = b.obj("P", "local")
    remote = b.obj("Q", "remote")
    b.link(home, local)
    b.link(home, remote)
    return sim, b


def test_position_is_pinned_as_variable_root():
    sim, b = setup_two_sites()
    Mutator(sim, "m", b["home"])
    assert b["home"] in sim.site("P").heap.variable_roots


def test_local_traverse_moves_pin():
    sim, b = setup_two_sites()
    m = Mutator(sim, "m", b["home"])
    m.traverse(b["local"])
    assert m.position == b["local"]
    assert b["local"] in sim.site("P").heap.variable_roots
    assert b["home"] not in sim.site("P").heap.variable_roots


def test_remote_traverse_is_asynchronous():
    sim, b = setup_two_sites()
    m = Mutator(sim, "m", b["home"])
    m.traverse(b["remote"])
    assert m.in_transit
    assert m.position == b["home"]
    sim.settle()
    assert not m.in_transit
    assert m.position == b["remote"]
    assert m.hops_taken == 1
    assert b["remote"] in sim.site("Q").heap.variable_roots


def test_remote_traverse_fires_transfer_barrier():
    sim, b = setup_two_sites()
    entry = sim.site("Q").inrefs.require(b["remote"])
    entry.table.set_source(entry.target, "P", 9)  # suspected
    m = Mutator(sim, "m", b["home"])
    m.traverse(b["remote"])
    sim.settle()
    assert entry.is_clean(4)


def test_traverse_requires_held_reference():
    sim, b = setup_two_sites()
    m = Mutator(sim, "m", b["home"])
    stranger = b.obj("P", "stranger")
    with pytest.raises(MutatorError):
        m.traverse(stranger)


def test_traverse_while_in_transit_rejected():
    sim, b = setup_two_sites()
    m = Mutator(sim, "m", b["home"])
    m.traverse(b["remote"])
    with pytest.raises(MutatorError):
        m.traverse(b["local"])


def test_when_arrived_callback():
    sim, b = setup_two_sites()
    m = Mutator(sim, "m", b["home"])
    seen = []
    m.traverse(b["remote"])
    m.when_arrived(lambda: seen.append(m.position))
    sim.settle()
    assert seen == [b["remote"]]


def test_variables_pin_and_clear():
    sim, b = setup_two_sites()
    m = Mutator(sim, "m", b["home"])
    m.set_variable("x", b["local"])
    assert b["local"] in sim.site("P").heap.variable_roots
    m.set_variable("x", b["remote"])  # re-bind: old pin released
    assert b["local"] not in sim.site("P").heap.variable_roots
    # A variable holding a remote reference pins the object at its owner.
    assert b["remote"] in sim.site("Q").heap.variable_roots
    m.clear_variable("x")
    assert b["remote"] not in sim.site("Q").heap.variable_roots
    with pytest.raises(MutatorError):
        m.get_variable("x")


def test_variable_root_prevents_collection():
    sim, b = setup_two_sites()
    m = Mutator(sim, "m", b["home"])
    m.set_variable("keep", b["local"])
    sim.site("P").mutator_remove_ref(b["home"], b["local"])
    sim.run_gc_round()
    assert sim.site("P").heap.contains(b["local"])
    m.clear_variable("keep")
    sim.run_gc_round()
    assert not sim.site("P").heap.contains(b["local"])


def test_store_and_delete_ref():
    sim, b = setup_two_sites()
    m = Mutator(sim, "m", b["home"])
    m.store_ref(b["local"])
    assert sim.site("P").heap.get(b["home"]).refs.count(b["local"]) == 2
    m.delete_ref(b["local"])
    m.delete_ref(b["local"])
    assert not sim.site("P").heap.get(b["home"]).holds_ref(b["local"])


def test_store_remote_destination_rejected():
    sim, b = setup_two_sites()
    m = Mutator(sim, "m", b["home"])
    with pytest.raises(MutatorError):
        m.store_ref(b["local"], holder=b["remote"])


def test_copy_ref_to_remote_full_protocol():
    sim, b = setup_two_sites()
    m = Mutator(sim, "m", b["home"])
    m.copy_ref_to_remote(b["local"], b["remote"])
    sim.settle()
    assert sim.site("Q").heap.get(b["remote"]).holds_ref(b["local"])
    assert "Q" in sim.site("P").inrefs.require(b["local"]).sources


def test_alloc_links_from_current():
    sim, b = setup_two_sites()
    m = Mutator(sim, "m", b["home"])
    oid = m.alloc()
    assert sim.site("P").heap.get(b["home"]).holds_ref(oid)
    sim.run_gc_round()
    assert sim.site("P").heap.contains(oid)


def test_random_workload_runs_safely():
    sim, b = setup_two_sites()
    workload = RandomWorkload(
        sim, "w", b["home"], config=WorkloadConfig(mean_interval=2.0)
    )
    workload.start()
    oracle = Oracle(sim)
    for _ in range(20):
        sim.run_for(50.0)
        oracle.check_safety()
    assert workload.ops_executed > 50
    workload.stop()


def test_store_variable_carried_ref_runs_insert_protocol():
    """Regression: a reference carried across sites in a mutator variable
    and stored where no outref exists must run the insert protocol --
    otherwise the owner never learns of the holder and collects a live
    object (section 6.3)."""
    sim = make_sim(sites=("P", "Q", "R"))
    b = GraphBuilder(sim)
    home = b.obj("P", "home", root=True)
    treasure = b.obj("Q", "treasure")
    b.link(home, treasure)
    shelf = b.obj("R", "shelf", root=True)
    m = Mutator(sim, "m", home)
    m.set_variable("x", b["treasure"])
    # Drop the only stored path; the variable is now the sole holder.
    m.delete_ref(b["treasure"])
    sim.run_gc_round()
    assert sim.site("Q").heap.contains(b["treasure"])  # variable pin
    # Walk to R and store the variable's reference there.
    m._arrived(shelf)  # re-enter via R's persistent root
    m.store_ref(m.get_variable("x"))
    # While the insert is in flight, the owner-side custody pin must keep
    # the object alive even if the variable is dropped immediately.
    m.clear_variable("x")
    sim.site("Q").run_local_trace()
    assert sim.site("Q").heap.contains(b["treasure"])
    sim.settle()
    # Insert processed: R is registered as a source and custody released.
    assert "R" in sim.site("Q").inrefs.require(b["treasure"]).sources
    assert b["treasure"] not in sim.site("Q").heap.variable_roots
    Oracle(sim).check_safety()
    # The object survives future rounds through the new inref alone.
    for _ in range(3):
        sim.run_gc_round()
    assert sim.site("Q").heap.contains(b["treasure"])
    Oracle(sim).check_safety()


def test_insert_for_dead_object_is_ignored():
    """An insert arriving for an already-collected object must not create a
    ghost inref entry."""
    sim = make_sim(sites=("P", "Q"))
    b = GraphBuilder(sim)
    ghost = b.obj("Q", "ghost")
    sim.site("Q").run_local_trace()  # collects the unrooted object
    assert not sim.site("Q").heap.contains(ghost)
    from repro.gc.insert import InsertRequest

    sim.site("P").send("Q", InsertRequest(target=ghost, pin_holder="P"))
    sim.settle()
    assert ghost not in sim.site("Q").inrefs


def test_workload_config_validation():
    with pytest.raises(Exception):
        WorkloadConfig(mean_interval=0.0)
    with pytest.raises(Exception):
        WorkloadConfig(max_stash=0)
