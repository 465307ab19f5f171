"""Post-trace table invariants on randomized worlds.

After any local trace commits, the two representations of back information
must be exact duals (the transfer barrier cleans via outsets, back traces
walk via insets -- a mismatch would break §6.1's safety proof):

- outref o's inset contains inref i  <=>  inref i's outset contains o;
- every inset member is a *suspected* inref (the auxiliary invariant:
  "for any suspected outref o, o.inset does not include any clean inref");
- every remote reference in the heap has an outref entry, and every
  non-pinned outref is locally reachable (no phantom table entries).
"""

from __future__ import annotations

from hypothesis import given, settings
from hypothesis import strategies as st

from repro import GcConfig
from repro.workloads import GraphBuilder

from tests.conftest import examples, make_sim



@st.composite
def random_worlds(draw):
    n_per_site = draw(st.integers(2, 6))
    edges = draw(
        st.lists(
            st.tuples(
                st.integers(0, 3 * n_per_site - 1),
                st.integers(0, 3 * n_per_site - 1),
            ),
            max_size=5 * n_per_site,
        )
    )
    rooted = draw(st.sets(st.integers(0, 3 * n_per_site - 1), max_size=4))
    distances = draw(st.lists(st.integers(1, 12), min_size=1, max_size=8))
    return n_per_site, edges, rooted, distances


@given(random_worlds())
@settings(max_examples=examples(80), deadline=None)
def test_inset_outset_duality_after_trace(world):
    n_per_site, edges, rooted, distances = world
    sites = ["s0", "s1", "s2"]
    sim = make_sim(sites=sites, gc=GcConfig(suspicion_threshold=3))
    builder = GraphBuilder(sim)
    objects = [builder.obj(sites[i % 3]) for i in range(3 * n_per_site)]
    for index in rooted:
        sim.site(objects[index].site).heap.make_persistent_root(objects[index])
    for src, dst in edges:
        builder.link(objects[src], objects[dst])
    # Scatter arbitrary distance estimates over the inrefs.
    cursor = 0
    for site in sim.sites.values():
        for entry in site.inrefs.entries():
            for source in entry.sources:
                entry.table.set_source(entry.target, source, distances[cursor % len(distances)])
                cursor += 1
    for site_id in sites:
        sim.sites[site_id].run_local_trace()

    for site in sim.sites.values():
        threshold = site.inrefs.suspicion_threshold
        insets = {
            entry.target: entry.inset for entry in site.outrefs.entries()
        }
        outsets = {
            entry.target: entry.outset for entry in site.inrefs.entries()
        }
        # Duality.
        for outref_target, inset in insets.items():
            for inref_target in inset:
                assert outref_target in outsets.get(inref_target, frozenset()), (
                    f"{site.site_id}: inset of {outref_target} names "
                    f"{inref_target} but not vice versa"
                )
        for inref_target, outset in outsets.items():
            for outref_target in outset:
                assert inref_target in insets.get(outref_target, frozenset())
        # Auxiliary invariant: no clean inref appears in any inset.
        for inset in insets.values():
            for inref_target in inset:
                entry = site.inrefs.get(inref_target)
                assert entry is not None
                assert entry.is_suspected(threshold)
        # Heap/table consistency: remote heap refs all have outref entries.
        for obj in site.heap.objects():
            for ref in obj.remote_refs():
                assert ref in site.outrefs, (
                    f"{site.site_id}: heap holds {ref} with no outref entry"
                )
