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
local traces run, over the heap's flat-graph mirror and only from the roots
of the pieces of the heap that changed (:mod:`repro.gc.localtrace` keeps
the outcome of the rest).  The kernel tests hold it to the reference on
every contract field.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import chain, repeat
from operator import itemgetter
from typing import Dict, Iterable, List, Optional, Set, Tuple

from ..ids import ObjectId
from ..store.heap import Heap


@dataclass
class CleanPhaseResult:
    """Output of the clean phase of one local trace.

    - ``clean_objects``: every local object reached from a clean root (the
      reference kernel's answer; the flat kernel leaves it empty);
    - ``marks``: the flat kernel's mark bitmap over the heap's indices, 1
      for clean, dead or free -- what the suspected phase reads;
    - ``outref_distances``: for each outref reached, the minimum
      ``1 + distance(root)`` over the clean roots that reach it;
    - ``clean_variable_outrefs``: outrefs held directly in mutator variables
      (roots of distance 0, so their distance estimate is 1);
    - ``objects_scanned`` / ``edges_examined``: cost counters;
    - ``regions``, ``merges``, ``holders``, ``held``: how the flat kernel's
      regions touch (see :func:`trace_clean_phase_flat`); not
      part of the kernels' contract.
    """

    clean_objects: Set[ObjectId] = field(default_factory=set)
    marks: bytearray = field(default_factory=bytearray)
    outref_distances: Dict[ObjectId, int] = field(default_factory=dict)
    clean_variable_outrefs: Set[ObjectId] = field(default_factory=set)
    objects_scanned: int = 0
    edges_examined: int = 0
    regions: Dict[int, List[int]] = field(default_factory=dict)
    merges: List[Tuple[int, int]] = field(default_factory=list)
    holders: Dict[ObjectId, int] = field(default_factory=dict)
    held: Dict[int, List[ObjectId]] = field(default_factory=dict)


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


def trace_clean_phase_flat(
    heap: Heap,
    roots: Iterable[Tuple[ObjectId, int]],
    variable_outrefs: Iterable[ObjectId] = (),
    marks: Optional[bytearray] = None,
    owner: Optional[List[int]] = None,
) -> CleanPhaseResult:
    """The clean phase over the heap's flat-graph mirror.

    Same contract as :func:`trace_clean_phase`: identical outref distances,
    ``objects_scanned`` and ``edges_examined``, and a clean set that is
    what it marks in ``marks`` (by default ``heap.fresh_marks()``: nothing
    marked but the dead and free indices).  Roots are taken one at a time
    in trace order (ascending distance, input order within a distance),
    each marking what no earlier root marked -- the root's *region*.  A
    row's remote references take its region's root distance plus one; the
    first root to reach a row is the nearest, so each outref gets ``1 +
    min`` over the roots that reach it.

    For the local collector's pieces the walk also reports how its regions
    touch: ``owner`` (by default all -1) gets each marked row's region,
    named by its root's index; a walk that meets a row another region
    marked, and a remote reference another region holds already, add the
    pair to ``merges``; ``holders`` maps each remote reference to a region
    holding it, and ``held`` each region to the remote references its rows
    hold.  These ride on the steps the walk takes anyway.
    """
    result = CleanPhaseResult()
    idx_map, succ_local, remote_rows, _, _ = heap.flat_graph()
    seen = heap.fresh_marks() if marks is None else marks
    owner = [-1] * len(seen) if owner is None else owner
    index_of, remote_get, regions = idx_map.get, remote_rows.get, result.regions
    merges, holders, region_held = result.merges, result.holders, result.held
    merge, distances, stack = merges.append, result.outref_distances, []
    stack_pop, stack_extend = stack.pop, stack.extend
    for root, root_distance in sorted(roots, key=itemgetter(1)):
        ridx = index_of(root)  # only local ids are ever interned
        if ridx is None or seen[ridx]:
            continue
        rows = []
        stack.append(ridx)
        while stack:
            i = stack_pop()
            if seen[i]:
                other = owner[i]
                if other != ridx and other >= 0:  # not this walk's, nor dead
                    merge((ridx, other))
                continue
            seen[i] = 1
            owner[i] = ridx
            rows.append(i)
            stack_extend(succ_local[i])
        regions[ridx] = rows
        held = list(chain.from_iterable(filter(None, map(remote_get, rows))))
        if held:
            region_held[ridx] = held
            # An outref an earlier region holds joins the two, and keeps
            # its distance: in trace order the first one given is the least.
            prior = holders.keys() & held
            if prior:
                merges.extend([(ridx, holders[r]) for r in dict.fromkeys(held) if r in prior])
                held = [r for r in held if r not in prior]
            holders.update(zip(held, repeat(ridx)))
            distances.update(zip(held, repeat(root_distance + 1)))

    for target in variable_outrefs:
        result.clean_variable_outrefs.add(target)
        current = distances.get(target)
        distances[target] = 1 if current is None else min(current, 1)

    marked = list(chain.from_iterable(regions.values()))
    result.marks = seen
    result.edges_examined = sum(map(len, map(succ_local.__getitem__, marked))) + sum(
        map(len, region_held.values())
    )
    result.objects_scanned = len(marked)
    return result
