"""Property-based tests for back-information computation.

The central invariant of section 5: both algorithms compute *exact*
reachability from suspected inrefs to suspected outrefs.  The algorithms walk
the heap's flat-graph mirror and read the clean phase's mark bitmap; the
oracle here walks ``ObjectId`` references and a clean *set*.  Random local
heaps with remote references, dangling references (swept targets and ids
referenced before they exist, both interned but dead), recycled indices,
random clean subsets and clean-outref sets check the algorithms against each
other and against the oracle.
"""

from __future__ import annotations

from typing import Dict, FrozenSet, List, Set, Tuple

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.backinfo import (
    TraceEnvironment,
    compute_outsets_bottom_up,
    compute_outsets_independent,
    invert_outsets,
)
from repro.ids import ObjectId
from repro.store.heap import Heap

from ..conftest import examples


@st.composite
def local_graphs(draw):
    """A random local heap with remote refs, clean marks, and inref roots."""
    n_objects = draw(st.integers(min_value=1, max_value=24))
    n_remote = draw(st.integers(min_value=0, max_value=6))
    heap = Heap("Q")
    objects = [heap.alloc() for _ in range(n_objects)]
    remotes = [ObjectId("P", i) for i in range(n_remote)]
    # Local ids no object has yet: referenced, they are interned but dead.
    unborn = [ObjectId("Q", 1000 + i) for i in range(2)]

    def link(holder):
        kind = draw(st.integers(0, 7))
        if remotes and kind < 2:
            holder.add_ref(draw(st.sampled_from(remotes)))
        elif kind == 2:
            holder.add_ref(draw(st.sampled_from(unborn)))
        else:
            holder.add_ref(draw(st.sampled_from(objects)).oid)

    for _ in range(draw(st.integers(min_value=0, max_value=3 * n_objects))):
        link(draw(st.sampled_from(objects)))
    # Sweep some: references to them dangle, their indices stay interned
    # while referenced and are recycled by later allocations otherwise.
    dead = [obj for obj in objects if draw(st.integers(0, 5)) == 0]
    heap.sweep_ids([obj.oid for obj in dead])
    alive = [obj for obj in objects if obj not in dead]
    late = [heap.alloc() for _ in range(draw(st.integers(0, 3)))]
    alive += late
    for obj in late:
        for _ in range(draw(st.integers(0, 3))):
            link(obj)

    clean_objects = {obj.oid for obj in alive if draw(st.integers(0, 4)) == 0}
    clean_remotes = {r for r in remotes if draw(st.integers(0, 3)) == 0}
    candidates = [obj.oid for obj in objects + late] + unborn
    roots = sorted(
        {oid for oid in candidates if draw(st.integers(0, 2)) == 0}
    )
    return heap, clean_objects, clean_remotes, roots


def oracle(
    heap, clean_objects, clean_remotes, roots
) -> Tuple[Dict[ObjectId, FrozenSet[ObjectId]], List[Set[ObjectId]], int]:
    """Reference over ``ObjectId`` references and a clean set: per root, a
    DFS over resident, not-clean objects.  Returns the outsets, each root's
    reached set, and the references those objects hold (each reached object
    counted once per root that reaches it)."""
    outsets = {}
    reaches = []
    edges = 0
    for root in roots:
        reach: Set[ObjectId] = set()
        found: Set[ObjectId] = set()
        stack = [] if root in clean_objects else [root]
        while stack:
            oid = stack.pop()
            if oid in reach or not heap.contains(oid):
                continue
            reach.add(oid)
            refs = heap.get(oid).refs
            edges += len(refs)
            for ref in refs:
                if ref.site != "Q":
                    if ref not in clean_remotes:
                        found.add(ref)
                elif ref not in clean_objects:
                    stack.append(ref)
        outsets[root] = frozenset(found)
        reaches.append(reach)
    return outsets, reaches, edges


def make_env(heap, clean_objects, clean_remotes):
    """The clean phase's view: a mark bitmap (dead and free indices marked,
    plus every clean object)."""
    marks = heap.fresh_marks()
    for oid in clean_objects:
        marks[heap.get(oid).index] = 1
    return TraceEnvironment(
        heap=heap,
        marks=marks,
        is_clean_outref=clean_remotes.__contains__,
    )


@given(local_graphs())
@settings(max_examples=examples(200), deadline=None)
def test_bottom_up_matches_brute_force(data):
    heap, clean_objects, clean_remotes, roots = data
    outsets, reaches, _ = oracle(heap, clean_objects, clean_remotes, roots)
    result = compute_outsets_bottom_up(make_env(heap, clean_objects, clean_remotes), roots)
    assert result.outsets == outsets
    visited = set().union(*reaches)
    assert result.visited_objects == visited
    # Each suspected object is scanned once, each of its references once.
    assert result.objects_scanned == len(visited)
    assert result.edges_examined == sum(len(heap.get(oid).refs) for oid in visited)
    assert result.distinct_outsets == len(set(outsets.values()))


@given(local_graphs())
@settings(max_examples=examples(200), deadline=None)
def test_independent_matches_brute_force(data):
    heap, clean_objects, clean_remotes, roots = data
    outsets, reaches, edges = oracle(heap, clean_objects, clean_remotes, roots)
    result = compute_outsets_independent(
        make_env(heap, clean_objects, clean_remotes), roots
    )
    assert result.outsets == outsets
    assert result.visited_objects == set().union(*reaches)
    # One fresh trace per inref: shared objects are scanned again.
    assert result.objects_scanned == sum(map(len, reaches))
    assert result.edges_examined == edges
    assert result.distinct_outsets == len(set(outsets.values()))


@given(local_graphs())
@settings(max_examples=examples(200), deadline=None)
def test_algorithms_agree(data):
    heap, clean_objects, clean_remotes, roots = data
    bottom_up = compute_outsets_bottom_up(
        make_env(heap, clean_objects, clean_remotes), roots
    )
    independent = compute_outsets_independent(
        make_env(heap, clean_objects, clean_remotes), roots
    )
    assert bottom_up.outsets == independent.outsets
    assert bottom_up.visited_objects == independent.visited_objects


@given(local_graphs())
@settings(max_examples=examples(100), deadline=None)
def test_bottom_up_visits_each_object_at_most_once(data):
    heap, clean_objects, clean_remotes, roots = data
    result = compute_outsets_bottom_up(
        make_env(heap, clean_objects, clean_remotes), roots
    )
    assert result.objects_scanned == len(result.visited_objects)
    assert result.objects_scanned <= len(heap)


@given(local_graphs())
@settings(max_examples=examples(100), deadline=None)
def test_insets_are_exact_inverse(data):
    heap, clean_objects, clean_remotes, roots = data
    result = compute_outsets_bottom_up(
        make_env(heap, clean_objects, clean_remotes), roots
    )
    insets = invert_outsets(result.outsets)
    for outref, inset in insets.items():
        for inref in inset:
            assert outref in result.outsets[inref]
    for inref, outset in result.outsets.items():
        for outref in outset:
            assert inref in insets[outref]
