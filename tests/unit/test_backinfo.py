"""Unit tests for back-information computation (section 5).

Covers the two algorithms on the paper's own examples (Figures 2 and 4) and
corner cases: strongly connected components, shared chains, clean stops, and
equality between the independent and bottom-up algorithms.
"""

import pytest

from repro.core.backinfo import (
    TraceEnvironment,
    compute_outsets_bottom_up,
    compute_outsets_independent,
    invert_outsets,
)
from repro.ids import ObjectId
from repro.store.heap import Heap

from ..conftest import KeptTrace

ALGORITHMS = [compute_outsets_independent, compute_outsets_bottom_up]


def env_for(heap, clean_objects=(), clean_outrefs=()):
    """An environment whose clean phase marked exactly ``clean_objects``."""
    clean_out = set(clean_outrefs)
    marks = heap.fresh_marks()
    for oid in clean_objects:
        marks[heap.get(oid).index] = 1
    return TraceEnvironment(
        heap=heap,
        marks=marks,
        is_clean_outref=lambda ref: ref in clean_out,
    )


@pytest.mark.parametrize("algorithm", ALGORITHMS)
def test_figure4_backward_edge(algorithm):
    """Figure 4: plain tracing misses outref c; SCC handling must not.

    Site Q holds inrefs a and b.  a -> z, b -> y -> z, z -> x -> y (back
    edge), x -> c (remote), y -> d (remote).  y, z, x form an SCC, so the
    outsets of a and b must both contain both c and d.
    """
    heap = Heap("Q")
    a, b, x, y, z = (heap.alloc() for _ in range(5))
    c = ObjectId("P", 0)
    d = ObjectId("R", 0)
    a.add_ref(z.oid)
    b.add_ref(y.oid)
    y.add_ref(z.oid)
    y.add_ref(d)
    z.add_ref(x.oid)
    x.add_ref(y.oid)
    x.add_ref(c)

    result = algorithm(env_for(heap), [a.oid, b.oid])
    assert result.outsets[a.oid] == {c, d}
    assert result.outsets[b.oid] == {c, d}


@pytest.mark.parametrize("algorithm", ALGORITHMS)
def test_figure2_insets(algorithm):
    """Figure 2, site Q: inset of outref c must be {a, b}; of d, {b}."""
    heap = Heap("Q")
    a, b = heap.alloc(), heap.alloc()
    c = ObjectId("P", 0)
    d = ObjectId("R", 5)
    a.add_ref(c)
    b.add_ref(c)
    b.add_ref(d)

    result = algorithm(env_for(heap), [a.oid, b.oid])
    insets = invert_outsets(result.outsets)
    assert insets[c] == {a.oid, b.oid}
    assert insets[d] == {b.oid}


@pytest.mark.parametrize("algorithm", ALGORITHMS)
def test_clean_objects_stop_the_trace(algorithm):
    heap = Heap("Q")
    a, mid = heap.alloc(), heap.alloc()
    remote = ObjectId("P", 0)
    a.add_ref(mid.oid)
    mid.add_ref(remote)
    result = algorithm(env_for(heap, clean_objects=[mid.oid]), [a.oid])
    assert result.outsets[a.oid] == frozenset()
    assert mid.oid not in result.visited_objects


@pytest.mark.parametrize("algorithm", ALGORITHMS)
def test_clean_outrefs_excluded(algorithm):
    heap = Heap("Q")
    a = heap.alloc()
    clean_remote = ObjectId("P", 0)
    dirty_remote = ObjectId("P", 1)
    a.add_ref(clean_remote)
    a.add_ref(dirty_remote)
    result = algorithm(env_for(heap, clean_outrefs=[clean_remote]), [a.oid])
    assert result.outsets[a.oid] == {dirty_remote}


@pytest.mark.parametrize("algorithm", ALGORITHMS)
def test_clean_inref_target_yields_empty_outset(algorithm):
    heap = Heap("Q")
    a = heap.alloc()
    a.add_ref(ObjectId("P", 0))
    result = algorithm(env_for(heap, clean_objects=[a.oid]), [a.oid])
    assert result.outsets[a.oid] == frozenset()


@pytest.mark.parametrize("algorithm", ALGORITHMS)
def test_missing_inref_target_yields_empty_outset(algorithm):
    heap = Heap("Q")
    ghost = ObjectId("Q", 404)
    result = algorithm(env_for(heap), [ghost])
    assert result.outsets[ghost] == frozenset()


@pytest.mark.parametrize("algorithm", ALGORITHMS)
def test_self_loop_object(algorithm):
    heap = Heap("Q")
    a = heap.alloc()
    remote = ObjectId("P", 2)
    a.add_ref(a.oid)
    a.add_ref(remote)
    result = algorithm(env_for(heap), [a.oid])
    assert result.outsets[a.oid] == {remote}


@pytest.mark.parametrize("algorithm", ALGORITHMS)
def test_long_chain_no_recursion_limit(algorithm):
    heap = Heap("Q")
    objects = [heap.alloc() for _ in range(5000)]
    for left, right in zip(objects, objects[1:]):
        left.add_ref(right.oid)
    remote = ObjectId("P", 0)
    objects[-1].add_ref(remote)
    result = algorithm(env_for(heap), [objects[0].oid])
    assert result.outsets[objects[0].oid] == {remote}


def test_bottom_up_scans_each_object_once():
    heap = Heap("Q")
    shared = [heap.alloc() for _ in range(20)]
    for left, right in zip(shared, shared[1:]):
        left.add_ref(right.oid)
    remote = ObjectId("P", 0)
    shared[-1].add_ref(remote)
    heads = [heap.alloc() for _ in range(10)]
    for head in heads:
        head.add_ref(shared[0].oid)
    roots = [head.oid for head in heads]
    bottom_up = compute_outsets_bottom_up(env_for(heap), roots)
    independent = compute_outsets_independent(env_for(heap), roots)
    assert bottom_up.outsets == independent.outsets
    assert bottom_up.objects_scanned == 30  # each object once
    assert independent.objects_scanned == 10 * 21  # heads retrace the chain


def test_bottom_up_scc_members_share_one_outset():
    heap = Heap("Q")
    ring = [heap.alloc() for _ in range(6)]
    for left, right in zip(ring, ring[1:] + ring[:1]):
        left.add_ref(right.oid)
    remote = ObjectId("P", 0)
    ring[3].add_ref(remote)
    result = compute_outsets_bottom_up(env_for(heap), [obj.oid for obj in ring])
    outsets = {result.outsets[obj.oid] for obj in ring}
    assert outsets == {frozenset({remote})}
    assert result.distinct_outsets == 1


def test_nested_sccs_cross_edges():
    """Two SCCs, the first pointing into the second: outsets must cascade."""
    heap = Heap("Q")
    a1, a2 = heap.alloc(), heap.alloc()
    b1, b2 = heap.alloc(), heap.alloc()
    remote = ObjectId("P", 0)
    a1.add_ref(a2.oid)
    a2.add_ref(a1.oid)
    b1.add_ref(b2.oid)
    b2.add_ref(b1.oid)
    a2.add_ref(b1.oid)  # cross edge SCC-A -> SCC-B
    b2.add_ref(remote)
    for algorithm in ALGORITHMS:
        result = algorithm(env_for(heap), [a1.oid, b1.oid])
        assert result.outsets[a1.oid] == {remote}
        assert result.outsets[b1.oid] == {remote}


def test_diamond_shares_memoized_unions():
    heap = Heap("Q")
    top, left, right, bottom = (heap.alloc() for _ in range(4))
    r1, r2 = ObjectId("P", 0), ObjectId("R", 1)
    top.add_ref(left.oid)
    top.add_ref(right.oid)
    left.add_ref(bottom.oid)
    right.add_ref(bottom.oid)
    left.add_ref(r1)
    right.add_ref(r2)
    result = compute_outsets_bottom_up(env_for(heap), [top.oid])
    assert result.outsets[top.oid] == {r1, r2}


def test_invert_outsets_round_trip():
    a, b = ObjectId("Q", 0), ObjectId("Q", 1)
    c, d = ObjectId("P", 0), ObjectId("R", 0)
    outsets = {a: frozenset({c}), b: frozenset({c, d})}
    insets = invert_outsets(outsets)
    assert insets == {c: frozenset({a, b}), d: frozenset({b})}


# -- the kept suspected pieces ------------------------------------------------
#
# Each test traces twice through a local collector that keeps its pieces
# (``tests.conftest.KeptTrace``): the second trace may keep the first one's
# outsets only where nothing its walk read has changed.  Each one fails when
# the one guard it names is taken out.


def test_backinfo_memo_reuses_an_unchanged_region():
    heap = Heap("Q")
    a, b = heap.alloc(), heap.alloc()
    a.add_ref(b.oid)
    b.add_ref(ObjectId("P", 0))
    kept = KeptTrace(heap)
    first = kept.trace(suspected=[a.oid])
    again = kept.trace(suspected=[a.oid])
    assert (len(first.outsets), len(again.outsets)) == (1, 0)
    assert first.outsets == {a.oid: {ObjectId("P", 0)}}
    assert kept.inrefs.outset_of(a.oid) == {ObjectId("P", 0)}
    assert first.suspected_objects_scanned == again.suspected_objects_scanned == 2
    assert again.suspected_objects_walked == 0


def test_backinfo_memo_walks_a_region_again_after_a_row_changes():
    """Guard: a changed row's piece is walked again."""
    heap = Heap("Q")
    a, b = heap.alloc(), heap.alloc()
    a.add_ref(b.oid)
    b.add_ref(ObjectId("P", 0))
    kept = KeptTrace(heap)
    kept.trace(suspected=[a.oid])
    b.add_ref(ObjectId("P", 1))
    again = kept.trace(suspected=[a.oid])
    assert again.outsets[a.oid] == {ObjectId("P", 0), ObjectId("P", 1)}
    assert again.suspected_objects_walked == 2


def test_backinfo_memo_sees_a_clean_boundary_turn_suspected():
    """Guard: a piece holding clean and suspected rows is walked again when
    the root that marked the clean ones goes."""
    heap = Heap("Q")
    a, shared = heap.alloc(), heap.alloc()
    a.add_ref(shared.oid)
    shared.add_ref(ObjectId("P", 0))
    heap.make_persistent_root(shared.oid)
    kept = KeptTrace(heap)
    first = kept.trace(suspected=[a.oid])
    assert first.outsets[a.oid] == frozenset()
    # The clean root that marked ``shared`` is gone: it is suspected now.
    heap.drop_persistent_root(shared.oid)
    again = kept.trace(suspected=[a.oid])
    assert again.outsets[a.oid] == {ObjectId("P", 0)}
    assert again.suspected_objects_scanned == 2


def test_backinfo_memo_sees_an_outref_turn_clean():
    """Guard: an outref pinned by the insert barrier, or taken into a
    mutator variable, walks its piece again: it is clean now."""
    for clean_by in ("pin", "variable"):
        heap = Heap("Q")
        a = heap.alloc()
        far, near = ObjectId("P", 0), ObjectId("P", 1)
        a.add_ref(far)
        a.add_ref(near)
        kept = KeptTrace(heap)
        first = kept.trace(suspected=[a.oid])
        assert first.outsets[a.oid] == {far, near}
        variable = ()
        if clean_by == "pin":
            kept.outrefs.pin(near)
        else:
            variable = (near,)
        again = kept.trace(suspected=[a.oid], variable_outrefs=variable)
        assert again.outsets[a.oid] == {far}, clean_by
        assert kept.inrefs.outset_of(a.oid) == {far}, clean_by


def test_backinfo_memo_sees_an_earlier_walk_enter_a_region():
    """Guard: a changed row that leads into another kept piece joins the
    two, so both are walked again."""
    heap = Heap("Q")
    a, b, c = heap.alloc(), heap.alloc(), heap.alloc()
    b.add_ref(c.oid)
    c.add_ref(ObjectId("P", 0))
    kept = KeptTrace(heap)
    kept.trace(suspected=[a.oid, b.oid])
    a.add_ref(c.oid)  # a's row now leads into b's piece
    again = kept.trace(suspected=[a.oid, b.oid])
    assert again.outsets == {a.oid: {ObjectId("P", 0)}, b.oid: {ObjectId("P", 0)}}
    assert again.suspected_objects_walked == 3
    assert again.pieces_walked == 1 and again.pieces_held == 1


def test_a_suspected_inrefs_new_distance_moves_its_outsets_outrefs():
    """Guard: a suspected inref whose distance alone moved keeps its piece
    unwalked while the piece's suspected inrefs keep their order, and
    walks it again once that order moves; either way each outref of its
    outset takes one past the nearest inref of its inset."""
    heap = Heap("Q")
    a, b, c = heap.alloc(), heap.alloc(), heap.alloc()
    a.add_ref(c.oid)
    b.add_ref(c.oid)
    out = ObjectId("P", 0)
    c.add_ref(out)
    kept = KeptTrace(heap)
    kept.trace(suspected=[(a.oid, 150), (b.oid, 160)])
    assert kept.outrefs.get(out).distance == 151
    again = kept.trace(suspected=[(a.oid, 170), (b.oid, 160)])
    assert again.pieces_walked == 1 and again.suspected_objects_walked == 3
    assert again.outref_changes == {out: (False, 161, frozenset({a.oid, b.oid}))}
    assert kept.outrefs.get(out).distance == 161
    unwalked = kept.trace(suspected=[(a.oid, 170), (b.oid, 165)])  # same order
    assert unwalked.pieces_walked == 0 and unwalked.suspected_objects_walked == 0
    assert unwalked.outref_changes == {out: (False, 166, frozenset({a.oid, b.oid}))}
    assert kept.outrefs.get(out).distance == 166
