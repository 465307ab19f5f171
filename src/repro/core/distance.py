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

Two kernels compute it.  :func:`trace_clean_phase` is the paper-literal
reference over ``ObjectId`` sets; :func:`trace_clean_phase_flat` is the one
local traces run, over the heap's flat-graph mirror, re-using each region of
its previous run on the same heap that no mutation since has touched.  The
kernel tests hold it to the reference on every result field.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import chain
from operator import itemgetter
from typing import Dict, Iterable, List, Set, Tuple

from ..ids import ObjectId
from ..store.heap import Heap, RegionMemo


@dataclass
class CleanPhaseResult:
    """Output of the clean phase of one local trace.

    - ``clean_objects``: every local object reached from a clean root (the
      reference kernel's answer; the flat kernel leaves it empty);
    - ``marks``: the flat kernel's mark bitmap over the heap's indices, 1
      for clean, dead or free -- what the suspected phase reads;
    - ``unmarked``: the resident objects the flat kernel did not reach --
      what the sweep may take;
    - ``outref_distances``: for each outref reached, the minimum
      ``1 + distance(root)`` over the clean roots that reach it;
    - ``clean_variable_outrefs``: outrefs held directly in mutator variables
      (roots of distance 0, so their distance estimate is 1);
    - ``objects_scanned`` / ``edges_examined``: cost counters;
    - ``objects_reused``: how many of the scanned objects the flat kernel
      took from its memo instead of walking (0 from the reference).  Not a
      counter and not part of the kernels' contract.
    """

    clean_objects: Set[ObjectId] = field(default_factory=set)
    marks: bytearray = field(default_factory=bytearray)
    unmarked: List[ObjectId] = field(default_factory=list)
    outref_distances: Dict[ObjectId, int] = field(default_factory=dict)
    clean_variable_outrefs: Set[ObjectId] = field(default_factory=set)
    objects_scanned: int = 0
    edges_examined: int = 0
    objects_reused: int = 0


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
    run the flat kernel below; the kernel tests hold it to this function's
    result, and the central-service baseline calls it.
    """
    result = CleanPhaseResult()
    clean, distances = result.clean_objects, result.outref_distances
    for target in variable_outrefs:
        result.clean_variable_outrefs.add(target)
        current = distances.get(target)
        distances[target] = 1 if current is None else min(current, 1)

    for root, root_distance in sorted(roots, key=lambda pair: (pair[1], pair[0])):
        if root.site != heap.site_id or not heap.contains(root):
            continue
        stack = [root]  # a DFS from one clean root, extending the shared marks
        while stack:
            oid = stack.pop()
            if oid in clean:
                continue
            clean.add(oid)
            refs = heap.get(oid).refs
            result.objects_scanned += 1
            result.edges_examined += len(refs)
            for ref in refs:
                if ref.site == heap.site_id:
                    if ref not in clean and heap.contains(ref):
                        stack.append(ref)
                else:
                    current = distances.get(ref)
                    if current is None or root_distance + 1 < current:
                        distances[ref] = root_distance + 1
    return result


#: A remembered region with at least this many rows is marked as a slice
#: of the mark bitmap; a smaller one row by row.
WIDE_REGION = 32


def trace_clean_phase_flat(
    heap: Heap,
    roots: Iterable[Tuple[ObjectId, int]],
    variable_outrefs: Iterable[ObjectId] = (),
) -> CleanPhaseResult:
    """The clean phase over the heap's flat-graph mirror.

    Same contract as :func:`trace_clean_phase`: identical outref distances,
    ``objects_scanned`` and ``edges_examined``, and a clean set that is the
    heap minus ``unmarked``, kept in index space as ``marks``.  Roots are
    taken one at a time in trace order (ascending distance, input order
    within a distance), each marking what no earlier root marked -- the
    root's *region*.  A row's remote references take its region's root
    distance plus one; the first root to reach a row is the nearest, so
    each outref gets ``1 + min`` over the roots that reach it.

    **Memo.**  ``Heap.clean_memo`` keeps each region of the previous call
    under its root's index: its rows (a tuple, or for a wide region the
    window ``(lo, hi, bits)`` they span), a getter over its *boundary*
    (the live rows an earlier root had marked that its edges led to) and
    the remote references its rows hold.  A root takes its remembered
    region wholesale, without walking, when no walk of this call marked
    one of the region's rows and every boundary row is marked -- wherever
    the root now sits in the trace order.  Sound because the marks after
    each root are exactly what the roots so far reach: the region's rows
    are unchanged (``Heap.take_dirty`` dropped every region holding a
    changed row), so they lead only into the region, its boundary and
    dead indices; its rows are reached from its root; none is reached from
    an earlier root (re-used regions are disjoint, and a walk that marks a
    row names the row's remembered owner as *intruded*); and all its
    boundary is.  Otherwise the root is walked.  A wide region is marked
    with one big-int OR over its window, no Python step per row.  Dead
    indices stay dead while a remembered row points at them, save for the
    memo-dropping revival in ``Heap.alloc``.  ``objects_scanned`` still
    counts every object the clean phase marked, re-used or not;
    ``objects_reused`` says how many of them came from the memo.
    """
    result = CleanPhaseResult()
    idx_map, succ_local, remote_rows, oids, slot_total = heap.flat_graph()
    heap.take_dirty()
    memo = heap.clean_memo
    regions = memo.regions
    seen = heap.fresh_marks()
    owner = memo.own(len(seen))
    index_of = idx_map.get
    region_of = regions.get
    remote_get = remote_rows.get
    kept = {}
    intruded = set()
    walked = 0
    distances = result.outref_distances
    nearest = distances.setdefault
    stack: List[int] = []
    stack_pop = stack.pop
    stack_extend = stack.extend
    for root, root_distance in sorted(roots, key=itemgetter(1)):
        ridx = index_of(root)  # only local ids are ever interned
        if ridx is None or seen[ridx]:
            continue  # an empty region: an earlier root reached it
        region = region_of(ridx)
        if region is not None and ridx not in intruded:
            rows, window, boundary, expected, held = region
            if boundary is not None and boundary(seen) != expected:
                region = None
            elif rows is not None:
                for i in rows:
                    seen[i] = 1
            else:
                lo, hi, bits = window
                seen[lo:hi] = (int.from_bytes(seen[lo:hi], "little") | bits).to_bytes(
                    hi - lo, "little"
                )
        else:
            region = None
        if region is None:
            before = bytes(seen)
            rows = []
            boundary = set()
            stack.append(ridx)
            while stack:
                i = stack_pop()
                if seen[i]:
                    if owner[i] != ridx:  # not this walk's, nor dead
                        boundary.add(i)
                    continue
                seen[i] = 1
                if owner[i] != ridx:
                    intruded.add(owner[i])
                    owner[i] = ridx
                rows.append(i)
                stack_extend(succ_local[i])
            walked += len(rows)
            window = None
            if len(rows) >= WIDE_REGION:
                lo, hi = min(rows), max(rows) + 1
                bits = int.from_bytes(seen[lo:hi], "little") ^ int.from_bytes(
                    before[lo:hi], "little"
                )
                window = (lo, hi, bits)
            held = tuple(chain.from_iterable(filter(None, map(remote_get, rows))))
            region = (
                None if window else tuple(rows),
                window,
                *RegionMemo.probe(list(boundary), [1] * len(boundary)),
                held,
            )
        kept[ridx] = region
        # In trace order, the first distance given an outref is its least.
        if held:
            outref_distance = root_distance + 1
            for ref in held:
                nearest(ref, outref_distance)
    memo.regions = kept

    for target in variable_outrefs:
        result.clean_variable_outrefs.add(target)
        current = distances.get(target)
        distances[target] = 1 if current is None else min(current, 1)

    # Few objects are left unmarked as a rule: take their rows back out.
    unmarked = []
    edges = slot_total
    i = seen.find(0)
    while i >= 0:
        unmarked.append(oids[i])
        edges -= len(succ_local[i]) + len(remote_get(i, ()))
        i = seen.find(0, i + 1)
    result.marks = seen
    result.unmarked = unmarked
    result.edges_examined = edges
    # Re-used plus walked rows: every resident object the phase marked.
    result.objects_scanned = len(heap) - len(unmarked)
    result.objects_reused = result.objects_scanned - walked
    return result
