"""Property-based tests of protocol-level invariants.

- update messages are idempotent state transfers (applying one twice equals
  applying it once) -- the property the self-healing full refresh relies on;
- the whole-system safety property: random small worlds with random cut
  schedules never lose a live object and always drain to zero garbage.
"""

from __future__ import annotations

from hypothesis import given, settings
from hypothesis import strategies as st

from repro import GcConfig
from repro.analysis import Oracle
from repro.gc.inrefs import InrefTable
from repro.gc.update import (
    UpdateDeltaPayload,
    UpdatePayload,
    apply_update,
    apply_update_delta,
)
from repro.ids import ObjectId
from repro.workloads import GraphBuilder

from ..conftest import examples, make_sim


# -- update idempotence -----------------------------------------------------------


@st.composite
def inref_tables_and_updates(draw):
    table = InrefTable("R", suspicion_threshold=4, initial_back_threshold=12)
    n_entries = draw(st.integers(1, 8))
    targets = []
    for serial in range(n_entries):
        target = ObjectId("R", serial)
        sources = draw(
            st.sets(st.sampled_from(["P", "Q", "S"]), min_size=1, max_size=3)
        )
        for source in sources:
            table.ensure(target, source=source, distance=draw(st.integers(1, 20)))
        targets.append(target)
    update_targets = draw(st.sets(st.sampled_from(targets), max_size=n_entries))
    distances = tuple(
        (target, draw(st.integers(1, 30))) for target in sorted(update_targets)
    )
    removal_pool = [t for t in targets if t not in update_targets]
    removals = tuple(
        sorted(draw(st.sets(st.sampled_from(removal_pool), max_size=3)))
        if removal_pool
        else []
    )
    if draw(st.booleans()):
        return table, UpdatePayload(distances=distances)
    return table, UpdateDeltaPayload(distances=distances, removals=removals)


def table_state(table: InrefTable):
    return {
        entry.target: dict(entry.sources) for entry in table.entries()
    }


@given(inref_tables_and_updates())
@settings(max_examples=examples(200), deadline=None)
def test_update_application_is_idempotent(data):
    table, payload = data
    apply = apply_update if payload.full else apply_update_delta
    apply(table, "P", payload)
    first = table_state(table)
    changed_again = apply(table, "P", payload)
    assert table_state(table) == first
    # A repeated full update may report "changed" only if it removed
    # something new -- which it cannot have, given identical input.
    assert not changed_again


@given(inref_tables_and_updates())
@settings(max_examples=examples(100), deadline=None)
def test_full_update_prunes_unlisted_sources(data):
    table, payload = data
    listed = {target for target, _ in payload.distances}
    apply_update(table, "P", UpdatePayload(distances=payload.distances))
    for entry in table.entries():
        if "P" in entry.sources:
            assert entry.target in listed


# -- whole-system randomized safety/completeness --------------------------------------


@st.composite
def small_worlds(draw):
    """A random 3-site world: objects, random edges, random root wiring."""
    n_per_site = draw(st.integers(2, 6))
    edges = draw(
        st.lists(
            st.tuples(st.integers(0, 3 * n_per_site - 1), st.integers(0, 3 * n_per_site - 1)),
            max_size=4 * n_per_site,
        )
    )
    rooted = draw(st.sets(st.integers(0, 3 * n_per_site - 1), min_size=1, max_size=4))
    cuts = draw(st.lists(st.integers(0, max(0, len(edges) - 1)), max_size=4))
    return n_per_site, edges, rooted, cuts


@given(small_worlds(), st.integers(0, 3))
@settings(max_examples=examples(60), deadline=None)
def test_random_worlds_safe_and_complete(world, seed):
    n_per_site, edges, rooted, cuts = world
    sites = ["s0", "s1", "s2"]
    sim = make_sim(
        seed=seed,
        sites=sites,
        gc=GcConfig(suspicion_threshold=2, assumed_cycle_length=3),
    )
    builder = GraphBuilder(sim)
    objects = []
    for index in range(3 * n_per_site):
        objects.append(builder.obj(sites[index % 3]))
    for index in rooted:
        sim.site(objects[index].site).heap.make_persistent_root(objects[index])
    edge_list = []
    for src_index, dst_index in edges:
        builder.link(objects[src_index], objects[dst_index])
        edge_list.append((objects[src_index], objects[dst_index]))
    oracle = Oracle(sim)
    for _ in range(2):
        sim.run_gc_round()
        oracle.check_safety()
    # Random deletions through the mutator API.
    for cut_index in cuts:
        if not edge_list:
            break
        src, dst = edge_list[cut_index % len(edge_list)]
        site = sim.site(src.site)
        obj = site.heap.maybe_get(src)
        if obj is not None and obj.holds_ref(dst):
            site.mutator_remove_ref(src, dst)
    # The system must stay safe at every round and drain completely.
    for _ in range(60):
        sim.run_gc_round()
        oracle.check_safety()
        if not oracle.garbage_set():
            break
    assert not oracle.garbage_set()
