"""The distance heuristic (section 3): the clean phase of a local trace.

The *distance* of an object is the minimum number of inter-site references on
any path from a persistent root to it; garbage has distance infinity.  Sites
estimate distances cooperatively:

- a persistent root behaves like an inref of distance 0 (application-variable
  roots are treated the same way, section 6.3);
- the local trace visits roots in increasing distance order, so when it first
  reaches an outref the outref's distance becomes ``1 + distance(root)`` --
  the minimum over all reaching roots;
- update messages carry outref distances to target sites, which fold them
  into the per-source distances of their inrefs.

This module implements the *clean phase*: tracing from all roots whose
distance is at or below the suspicion threshold.  Objects it marks are
*clean*; everything else is the suspected region handled by
:mod:`repro.core.backinfo`.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Set, Tuple

from ..ids import ObjectId
from ..store.heap import Heap


@dataclass
class CleanPhaseResult:
    """Output of the clean phase of one local trace.

    - ``clean_objects``: every local object reached from a clean root;
    - ``outref_distances``: for each outref reached, the minimum
      ``1 + distance(root)`` over the clean roots that reach it;
    - ``clean_variable_outrefs``: outrefs held directly in mutator variables
      (roots of distance 0, so their distance estimate is 1);
    - ``objects_scanned`` / ``edges_examined``: cost counters.
    """

    clean_objects: Set[ObjectId] = field(default_factory=set)
    outref_distances: Dict[ObjectId, int] = field(default_factory=dict)
    clean_variable_outrefs: Set[ObjectId] = field(default_factory=set)
    objects_scanned: int = 0
    edges_examined: int = 0


def trace_clean_phase(
    heap: Heap,
    roots: Iterable[Tuple[ObjectId, int]],
    variable_outrefs: Iterable[ObjectId] = (),
) -> CleanPhaseResult:
    """Trace from clean roots in increasing distance order.

    ``roots`` yields (local object id, root distance) pairs: persistent and
    variable roots at distance 0, clean inrefs at their estimated distance.
    ``variable_outrefs`` are remote references held directly by mutator
    variables; they are clean by definition and receive distance 1.

    Each object is visited once.  Because roots are processed smallest
    distance first, the distance recorded for an outref on first encounter is
    already the minimum, mirroring the paper's ordering argument.

    This is the paper-literal reference over ``ObjectId`` sets.  Local traces
    run the flat and frontier kernels below; the kernel tests hold both to
    this function's result, and the central-service baseline calls it.
    """
    result = CleanPhaseResult()
    for target in variable_outrefs:
        result.clean_variable_outrefs.add(target)
        current = result.outref_distances.get(target)
        result.outref_distances[target] = 1 if current is None else min(current, 1)

    ordered_roots = sorted(roots, key=lambda pair: (pair[1], pair[0]))
    for root, root_distance in ordered_roots:
        if root.site != heap.site_id or not heap.contains(root):
            continue
        _trace_from_root(heap, root, root_distance, result)
    return result


def trace_clean_phase_flat(
    heap: Heap,
    roots: Iterable[Tuple[ObjectId, int]],
    variable_outrefs: Iterable[ObjectId] = (),
) -> CleanPhaseResult:
    """The clean phase over the heap's flat-graph mirror.

    Semantically identical to :func:`trace_clean_phase` (same clean set,
    same outref distances, same cost counters -- the integration twins
    assert byte-equality), but the traversal runs over dense int indices:
    the mark "set" is the heap's reusable bytearray bitmap, the stack holds
    ints, and local successor edges cost a list-of-int iteration plus two
    bytearray probes instead of ObjectId hashing.  The bitmap is zeroed
    index-by-index on the way out, so between traces it is all-zero and no
    per-trace allocation proportional to the heap survives.
    """
    result = CleanPhaseResult()
    distances = result.outref_distances
    for target in variable_outrefs:
        result.clean_variable_outrefs.add(target)
        current = distances.get(target)
        distances[target] = 1 if current is None else min(current, 1)

    idx_map, alive, succ_local, succ_remote, mark, oids = heap.flat_graph()
    distances_get = distances.get
    site_id = heap.site_id
    marked: List[int] = []
    marked_append = marked.append
    scanned = 0
    edges = 0
    for root, root_distance in sorted(roots, key=lambda pair: (pair[1], pair[0])):
        if root.site != site_id:
            continue
        ridx = idx_map.get(root)
        if ridx is None or not alive[ridx] or mark[ridx]:
            continue
        outref_distance = root_distance + 1
        stack: List[int] = [ridx]
        stack_pop = stack.pop
        stack_append = stack.append
        while stack:
            i = stack_pop()
            if mark[i]:
                continue
            mark[i] = 1
            marked_append(i)
            scanned += 1
            loc = succ_local[i]
            rem = succ_remote[i]
            edges += len(loc) + len(rem)
            for s in loc:
                if not mark[s] and alive[s]:
                    stack_append(s)
            for ref in rem:
                current = distances_get(ref)
                if current is None or outref_distance < current:
                    distances[ref] = outref_distance
    if len(marked) == len(heap):
        # Everything alive was marked (the common case for a quiescent full
        # trace): the clean set IS the resident set, and the heap hands out
        # a C-level copy of it without re-hashing a single ObjectId.
        result.clean_objects = heap.object_id_set()
        for i in marked:
            mark[i] = 0
    else:
        clean_add = result.clean_objects.add
        for i in marked:
            clean_add(oids[i])
            mark[i] = 0
    result.objects_scanned = scanned
    result.edges_examined = edges
    return result


#: Size gate for the frontier kernel: below this many resident objects a
#: full trace stays on the flat DFS, whose fixed costs are lower (applied in
#: ``LocalCollector._trace_heap``).
FRONTIER_MIN_OBJECTS = 512

#: Shape gate for the frontier kernel.  A level-synchronous sweep pays a
#: fixed cost per *level* (a handful of set constructions), so a deep narrow
#: graph (a chain: one object per level) is its worst case -- thousands of
#: tiny set operations doing the work a scalar DFS finishes in one pass.
#: When the average frontier width over the first ``_NARROW_PROBE_LEVELS``
#: levels stays below ``_NARROW_MIN_WIDTH``, the kernel abandons the sweep,
#: reruns the trace on the flat scalar kernel, and skips the sweep for the
#: next ``_NARROW_BACKOFF_TRACES`` traces on that heap before probing again
#: -- so a heap that later widens gets the frontier path back.
_NARROW_PROBE_LEVELS = 64
_NARROW_MIN_WIDTH = 8
_NARROW_BACKOFF_TRACES = 128


def trace_clean_phase_vector(
    heap: Heap,
    roots: Iterable[Tuple[ObjectId, int]],
    variable_outrefs: Iterable[ObjectId] = (),
) -> CleanPhaseResult:
    """The clean phase as frontier sweeps in set algebra over the live mirror.

    Same contract as :func:`trace_clean_phase` / the flat kernel: identical
    clean set, outref distances, and cost counters.  The equivalence
    argument: in the sequential kernels an object's *label* -- the root
    distance whose DFS first marks it -- is the minimum distance over all
    clean roots that reach it, because roots run in ascending distance
    order and marked objects are never re-entered.  Level-synchronous BFS
    per distinct root distance computes exactly those labels, so every
    outref distance (``1 + label`` of a holder, minimised over holders)
    matches, and the counters are order-independent (scanned = number
    marked, edges = summed degree of marked objects).

    One level is ``set().union(*rows of the frontier) - marked``: the union
    hashes each successor slot once in C, and the *binary* difference
    iterates the new frontier, where ``-=`` / ``difference_update`` would
    iterate the whole marked set per level.  The rows are the mirror's own
    adjacency lists, current by construction, so nothing is rebuilt when
    the graph changes; the edge count and the clean set come from what the
    heap maintains minus the rows left unmarked, after a clean phase few.

    Bails out to the flat kernel mid-sweep when the graph turns out to be
    deep and narrow (see ``_NARROW_PROBE_LEVELS``); the caller sees the
    identical result.  The heap's mark bitmap is never touched.
    """
    backoff = heap.vector_kernel_backoff
    if backoff > 0:
        heap.vector_kernel_backoff = backoff - 1
        return trace_clean_phase_flat(heap, roots, variable_outrefs)
    root_list = list(roots)

    result = CleanPhaseResult()
    distances = result.outref_distances
    for target in variable_outrefs:
        result.clean_variable_outrefs.add(target)
        current = distances.get(target)
        distances[target] = 1 if current is None else min(current, 1)

    idx_map, _, succ_local, succ_remote, _, oids = heap.flat_graph()
    alive, remote_rows, slot_total = heap.frontier_graph()

    by_distance: Dict[int, List[int]] = {}
    for root, root_distance in root_list:
        ridx = idx_map.get(root)  # only local ids are ever interned
        if ridx in alive:
            by_distance.setdefault(root_distance, []).append(ridx)

    # A successor slot can only name a dead index while one is interned.
    dangling = len(idx_map) != len(alive)
    row_of = succ_local.__getitem__
    distances_get = distances.get
    marked: Set[int] = set()
    levels = 0
    for root_distance in sorted(by_distance):
        # Everything this group marks has label ``root_distance``.
        outref_distance = root_distance + 1
        frontier = set(by_distance[root_distance]) - marked
        while frontier:
            marked |= frontier
            levels += 1
            if (
                levels >= _NARROW_PROBE_LEVELS
                and len(marked) < levels * _NARROW_MIN_WIDTH
            ):
                heap.vector_kernel_backoff = _NARROW_BACKOFF_TRACES
                return trace_clean_phase_flat(heap, root_list, variable_outrefs)
            # Only the rows that hold a remote reference are visited.
            for i in remote_rows.keys() & frontier:
                for ref in remote_rows[i]:
                    current = distances_get(ref)
                    if current is None or outref_distance < current:
                        distances[ref] = outref_distance
            frontier = set().union(*map(row_of, frontier)) - marked
            if dangling:
                frontier &= alive

    result.objects_scanned = len(marked)
    unmarked = alive - marked
    if len(unmarked) < len(marked):
        # How a clean phase usually ends: few rows left out, so start from
        # what the heap maintains and take those rows back out.
        clean = heap.object_id_set()
        edges = slot_total
        for i in unmarked:
            clean.discard(oids[i])
            edges -= len(succ_local[i]) + len(succ_remote[i])
    else:
        clean = set(map(oids.__getitem__, marked))
        edges = sum(map(len, map(row_of, marked))) + sum(
            len(remote_rows[i]) for i in remote_rows.keys() & marked
        )
    result.clean_objects = clean
    result.edges_examined = edges
    return result


def _trace_from_root(
    heap: Heap, root: ObjectId, root_distance: int, result: CleanPhaseResult
) -> None:
    """DFS from one clean root, extending shared marks and outref distances.

    This is the hottest loop in the simulator (every local trace touches
    every edge of every clean object), so lookups are hoisted out of the
    per-edge path: the heap's object map and the result sets are bound to
    locals once, each object's successor list is scanned directly via the
    no-copy ``ref_view``, and the cost counters are accumulated in locals
    and folded back at the end.
    """
    clean = result.clean_objects
    if root in clean:
        return
    objects = heap.objects_map()
    site_id = heap.site_id
    distances = result.outref_distances
    distances_get = distances.get
    clean_add = clean.add
    stack: List[ObjectId] = [root]
    stack_pop = stack.pop
    stack_append = stack.append
    outref_distance = root_distance + 1
    scanned = 0
    edges = 0
    while stack:
        oid = stack_pop()
        if oid in clean:
            continue
        clean_add(oid)
        scanned += 1
        refs = objects[oid].ref_view
        edges += len(refs)
        for ref in refs:
            if ref.site == site_id:
                if ref not in clean and ref in objects:
                    stack_append(ref)
            else:
                current = distances_get(ref)
                if current is None or outref_distance < current:
                    distances[ref] = outref_distance
    result.objects_scanned += scanned
    result.edges_examined += edges
