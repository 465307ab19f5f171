"""Unit tests for snapshot/DOT export."""

import json

from repro.analysis.export import graph_diff, graph_snapshot, to_dot
from repro.workloads import GraphBuilder, build_ring_cycle

from ..conftest import make_sim


def build_world():
    sim = make_sim(sites=("P", "Q"))
    b = GraphBuilder(sim)
    root = b.obj("P", "root", root=True)
    p, q = b.obj("P", "p"), b.obj("Q", "q")
    b.link(root, p)
    b.link(p, q)
    b.link(q, p)
    return sim, b


def test_snapshot_is_json_serializable():
    sim, b = build_world()
    data = graph_snapshot(sim)
    json.dumps(data)  # must not raise
    assert set(data["sites"]) == {"P", "Q"}
    assert str(b["root"]) in data["sites"]["P"]["objects"]
    assert data["sites"]["P"]["objects"][str(b["root"])]["persistent_root"]


def test_snapshot_records_ioref_state():
    sim, b = build_world()
    data = graph_snapshot(sim)
    q_inrefs = data["sites"]["Q"]["inrefs"]
    assert q_inrefs[str(b["q"])]["sources"] == {"P": 1}
    p_outrefs = data["sites"]["P"]["outrefs"]
    assert str(b["q"]) in p_outrefs


def test_diff_snapshots_tracks_deaths():
    sim, b = build_world()
    before = graph_snapshot(sim)
    sim.site("P").mutator_remove_ref(b["root"], b["p"])
    for _ in range(30):
        sim.run_gc_round()
        from repro.analysis import Oracle
        if not Oracle(sim).garbage_set():
            break
    after = graph_snapshot(sim)
    delta = graph_diff(before, after)
    assert str(b["p"]) in delta["P"]["objects_died"]
    assert str(b["q"]) in delta["Q"]["objects_died"]


def test_dot_output_structure():
    sim, b = build_world()
    dot = to_dot(sim)
    assert dot.startswith("digraph")
    assert 'subgraph "cluster_P"' in dot
    assert f'"{b["p"]}" -> "{b["q"]}"' in dot  # cross-site edge
    assert "doubleoctagon" in dot              # the persistent root
    assert dot.strip().endswith("}")


def test_dot_marks_suspected_and_garbage():
    sim, b = build_world()
    entry = sim.site("Q").inrefs.require(b["q"])
    entry.table.set_source(entry.target, "P", 99)
    dot = to_dot(sim)
    assert "orange" in dot
    entry.garbage = True
    dot = to_dot(sim)
    assert "red" in dot


def test_dot_includes_inset_overlay():
    sim = make_sim(sites=("P", "Q"))
    workload = build_ring_cycle(sim, ["P", "Q"])
    workload.make_garbage(sim)
    for site in sim.sites.values():
        for entry in site.inrefs.entries():
            for source in entry.sources:
                entry.table.set_source(entry.target, source, 9)
        site.run_local_trace()
    sim.settle()
    dot = to_dot(sim)
    assert 'label="inset"' in dot


def test_dot_highlight_and_crash_annotations():
    sim, b = build_world()
    sim.site("Q").crash()
    dot = to_dot(sim, highlight={b["p"]})
    assert "penwidth=3" in dot
    assert "CRASHED" in dot
