"""Shared types for the two back-information algorithms.

The algorithms run as phase two of a local trace: phase one has already
marked every object reachable from clean roots (persistent roots, variable
roots, clean inrefs).  What remains is the *suspected* region of the heap,
over which we compute, for each suspected inref, the set of suspected outrefs
locally reachable from it (its *outset*).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Dict, FrozenSet, List, Optional, Set, Tuple

from ...ids import ObjectId
from ...store.heap import Heap


@dataclass
class TraceEnvironment:
    """Everything a back-information algorithm needs to see of the site.

    - ``heap``: the local object store; the algorithms walk its flat-graph
      mirror (int indices), never its ``HeapObject`` reference lists;
    - ``marks``: the clean phase's mark bitmap over the heap's indices
      (:attr:`CleanPhaseResult.marks`): 1 for an object it marked clean, and
      for a dead or free index.  Tracing stops at marked objects ("black"
      objects in section 5.1); ``heap.fresh_marks()`` marks nothing clean;
    - ``is_clean_outref``: whether a remote reference's outref is clean as of
      this trace (reached from a clean root in phase one, or pinned by the
      insert barrier); clean outrefs never enter outsets.
    """

    heap: Heap
    marks: bytearray
    is_clean_outref: Callable[[ObjectId], bool]

    def is_clean_object(self, index: int) -> bool:
        return bool(self.marks[index])

    def suspected_index(self, oid: ObjectId) -> Optional[int]:
        """The index of a resident, unmarked local object, else None."""
        index = self.heap.flat_graph()[0].get(oid)
        if index is None or self.is_clean_object(index):
            return None
        return index


@dataclass
class BackInfoResult:
    """Outcome of one back-information computation.

    ``outsets`` maps each suspected inref target to the frozenset of
    suspected outref targets locally reachable from it.  ``visited_objects``
    is the set of suspected objects the computation traversed (they are live
    w.r.t. this trace and must survive the sweep), ``visited_rows`` their
    heap indices.  The cost fields are the counters benchmark E3/E4 report;
    ``charges`` splits them by the suspected inref whose walk incurred them:
    target -> (objects scanned, edges examined, unions computed, union memo
    hits), for each target that walked.
    """

    outsets: Dict[ObjectId, FrozenSet[ObjectId]] = field(default_factory=dict)
    visited_objects: Set[ObjectId] = field(default_factory=set)
    visited_rows: List[int] = field(default_factory=list)
    objects_scanned: int = 0
    edges_examined: int = 0
    unions_computed: int = 0
    union_memo_hits: int = 0
    distinct_outsets: int = 0
    charges: Dict[ObjectId, Tuple[int, int, int, int]] = field(default_factory=dict)


def invert_outsets(
    outsets: Dict[ObjectId, FrozenSet[ObjectId]]
) -> Dict[ObjectId, FrozenSet[ObjectId]]:
    """Turn outsets (inref -> outrefs) into insets (outref -> inrefs).

    The paper stores whichever representation is convenient, noting they are
    "two different representations of reachability information"; back traces
    take local steps via insets.
    """
    accumulator: Dict[ObjectId, Set[ObjectId]] = {}
    for inref_target, outset in outsets.items():
        for outref_target in outset:
            accumulator.setdefault(outref_target, set()).add(inref_target)
    return {target: frozenset(members) for target, members in accumulator.items()}
