"""Integration tests for the distance heuristic (section 3, benchmark E2).

The theorem: if all sites containing a cycle do at least one local trace per
round, then k rounds after the cycle became garbage the estimated distances
of all objects in the cycle are at least k.  Live objects' estimates converge
to their true distances and stay put.
"""

import pytest

from repro import GcConfig
from repro.workloads import GraphBuilder, build_ring_cycle

from ..conftest import make_sim


def min_cycle_distance(sim, workload):
    distances = []
    for member in workload.cycle:
        entry = sim.site(member.site).inrefs.get(member)
        if entry is not None:
            distances.append(entry.distance)
    return min(distances) if distances else None


@pytest.mark.parametrize("n_sites", [2, 3, 5, 8])
def test_garbage_cycle_distances_grow_at_least_one_per_round(n_sites):
    sites = [f"s{i}" for i in range(n_sites)]
    sim = make_sim(sites=sites, gc=GcConfig(collector="null"))
    workload = build_ring_cycle(sim, sites)
    for _ in range(3):
        sim.run_gc_round()
    workload.make_garbage(sim)
    baseline = min_cycle_distance(sim, workload)
    for k in range(1, 12):
        sim.run_gc_round()
        assert min_cycle_distance(sim, workload) >= baseline + k - 1


def test_live_object_distance_converges_to_true_distance():
    """A chain root -> s0 -> s1 -> s2 -> s3: true distances are 1..4."""
    sites = ["s0", "s1", "s2", "s3"]
    sim = make_sim(sites=sites, gc=GcConfig(collector="null"))
    b = GraphBuilder(sim)
    root = b.obj("s0", "root", root=True)
    members = [b.obj(site) for site in sites]
    b.link(root, members[1])
    b.link(members[1], members[2])
    b.link(members[2], members[3])
    for _ in range(6):
        sim.run_gc_round()
    for hop, member in enumerate(members[1:], start=1):
        entry = sim.site(member.site).inrefs.require(member)
        assert entry.distance == hop
    # Further rounds change nothing.
    for _ in range(4):
        sim.run_gc_round()
    for hop, member in enumerate(members[1:], start=1):
        assert sim.site(member.site).inrefs.require(member).distance == hop


def test_live_cycle_distance_stable():
    """A live ring's estimates stabilize at true distances (no runaway)."""
    sites = ["a", "b", "c"]
    sim = make_sim(sites=sites, gc=GcConfig(collector="null"))
    workload = build_ring_cycle(sim, sites)  # anchored to the root
    for _ in range(10):
        sim.run_gc_round()
    snapshot = [
        sim.site(m.site).inrefs.require(m).distance for m in workload.cycle
    ]
    for _ in range(5):
        sim.run_gc_round()
    assert snapshot == [
        sim.site(m.site).inrefs.require(m).distance for m in workload.cycle
    ]
    assert max(snapshot) <= len(sites) + 1


def test_all_cyclic_garbage_eventually_suspected():
    """Completeness of the heuristic: every cycle member crosses T."""
    threshold = 4
    sites = [f"s{i}" for i in range(4)]
    sim = make_sim(
        sites=sites,
        gc=GcConfig(suspicion_threshold=threshold, collector="null"),
    )
    workload = build_ring_cycle(sim, sites, objects_per_site=2)
    for _ in range(2):
        sim.run_gc_round()
    workload.make_garbage(sim)
    for _ in range(threshold + 4):
        sim.run_gc_round()
    for member in workload.cycle:
        entry = sim.site(member.site).inrefs.get(member)
        if entry is not None:  # intra-site members have no inref
            assert entry.is_suspected(threshold)


def test_new_source_starts_at_distance_one():
    sim = make_sim(sites=("P", "Q"))
    b = GraphBuilder(sim)
    target = b.obj("Q", "t")
    holder = b.obj("P", "h", root=True)
    b.link(holder, target)
    entry = sim.site("Q").inrefs.require(target)
    assert entry.sources == {"P": 1}
