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
local traces run, over the heap's flat-graph mirror, re-using the part of
its previous run on the same heap that no mutation since has touched.  The
kernel tests hold it to the reference on every result field.
"""

from __future__ import annotations

from bisect import bisect_left
from dataclasses import dataclass, field
from itertools import groupby
from operator import itemgetter
from typing import Dict, Iterable, List, Set, Tuple

from ..ids import ObjectId
from ..store.heap import Heap


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


#: Trace positions a rank byte can name; a root past them is walked on
#: every call and its rows are ranked ``_UNRANKED``.
RANKED_POSITIONS = 254
_UNRANKED = 254
_NONE = 255
#: ``bytes.translate`` table: 1 for a ranked row, 0 for a row no root marked.
_RANK_MARKS = bytes([1]) * _NONE + bytes([0])


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
    within a distance), each a DFS over int indices that marks what no
    earlier root marked -- the root's *region*.  Each marked row is ranked
    with the position of the root whose region holds it, so when a distance
    group finishes, the remote references of the rows ranked inside it take
    its distance plus one (unless smaller already).

    **Memo.**  The heap keeps the previous call's ``(distance, index)`` root
    keys, the positions whose region was empty and the rank bytes
    (``Heap.clean_memo``), plus the rows changed since (``Heap.take_dirty``).
    The first ``k`` regions are re-used -- marked wholesale, without
    walking -- where ``k`` is the longest prefix of equal keys, lowered to
    the smallest rank of a changed row, and lowered again to the first
    position in it whose region was empty but whose root is unmarked now.
    Sound because a region is exactly what a DFS reaches from its root
    through unmarked objects: its rows' edges are unchanged, they lead
    only into the region and into what was marked before it (earlier
    regions, re-used identically, and dead indices, which only the memo-
    dropping revival in ``Heap.alloc`` brings back), and none of its
    objects died, so the walk would repeat itself.  Re-use costs
    O(|changed rows| + roots) Python steps: the prefix's marks are the
    fresh marks OR'd, as big ints, with the translated rank bytes, and
    positions from ``RANKED_POSITIONS`` on are never re-used.  A walk ranks
    each row it marks.  ``objects_scanned`` still counts every object the
    clean phase marked, re-used or not; ``objects_reused`` says how many of
    them came from the memo.
    """
    result = CleanPhaseResult()
    distances = result.outref_distances
    for target in variable_outrefs:
        result.clean_variable_outrefs.add(target)
        current = distances.get(target)
        distances[target] = 1 if current is None else min(current, 1)

    idx_map, succ_local, remote_rows, oids, slot_total = heap.flat_graph()
    keys = [  # only local ids are ever interned
        (root_distance, ridx)
        for root, root_distance in sorted(roots, key=itemgetter(1))
        if (ridx := idx_map.get(root)) is not None
    ]
    dirty = heap.take_dirty()
    fresh = heap.fresh_marks()
    size = len(fresh)
    old_keys, old_empty, old_rank = heap.clean_memo or ([], [], bytearray())

    # The re-used prefix: no changed row inside, equal keys, and every
    # empty region still empty (its root marked by an earlier region or dead).
    k = min(len(keys), len(old_keys), RANKED_POSITIONS)
    for i in dirty:
        if i < len(old_rank) and old_rank[i] < k:
            k = old_rank[i]
    if keys[:k] != old_keys[:k]:
        k = next(p for p in range(k) if keys[p] != old_keys[p])
    for p in old_empty:
        if p >= k:
            break
        ridx = keys[p][1]
        if not fresh[ridx] and old_rank[ridx] >= p:
            k = p
            break
    # Keep the ranks below ``k``; unrank the rest.
    rank = old_rank.translate(bytes(range(k)) + bytes([_NONE]) * (256 - k))
    if len(rank) < size:  # the mirror grew since
        rank += bytes([_NONE]) * (size - len(rank))
    seen = fresh
    reused = 0
    if k:
        prefix = rank.translate(_RANK_MARKS)
        reused = prefix.count(1)
        seen = bytearray(
            (
                int.from_bytes(fresh, "little") | int.from_bytes(prefix, "little")
            ).to_bytes(size, "little")
        )
    empty = old_empty[: bisect_left(old_empty, k)]

    stack: List[int] = []
    stack_pop = stack.pop
    stack_extend = stack.extend
    distances_get = distances.get
    # Rows holding remote references that no group has marked yet.
    pending = list(remote_rows)
    position = 0
    for root_distance, group in groupby(keys, key=itemgetter(0)):
        for _, ridx in group:
            if position >= k:
                if seen[ridx]:
                    empty.append(position)
                else:
                    label = position if position < RANKED_POSITIONS else _UNRANKED
                    stack.append(ridx)
                    while stack:
                        i = stack_pop()
                        if seen[i]:
                            continue
                        seen[i] = 1
                        rank[i] = label
                        stack_extend(succ_local[i])
            position += 1
        if not pending:
            continue
        # Every rank written so far names a position below ``limit``.
        limit = min(position, _NONE)
        outref_distance = root_distance + 1
        still_pending = []
        for i in pending:
            if rank[i] < limit:
                for ref in remote_rows[i]:
                    current = distances_get(ref)
                    if current is None or outref_distance < current:
                        distances[ref] = outref_distance
            else:
                still_pending.append(i)
        pending = still_pending
    heap.clean_memo = (keys, empty, rank)

    # Few objects are left unmarked as a rule: take their rows back out.
    unmarked = []
    edges = slot_total
    i = seen.find(0)
    while i >= 0:
        unmarked.append(oids[i])
        edges -= len(succ_local[i]) + len(remote_rows.get(i, ()))
        i = seen.find(0, i + 1)
    result.marks = seen
    result.unmarked = unmarked
    # Re-used plus walked rows: every resident object the phase marked.
    result.objects_scanned = len(heap) - len(unmarked)
    result.objects_reused = reused
    result.edges_examined = edges
    return result

