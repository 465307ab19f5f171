"""Bottom-up outset computation (section 5.2).

A single depth-first traversal over the suspected region computes the outset
of every suspected object, combining three things exactly as the paper's
final pseudocode does:

- tracing (each suspected object is scanned once, across *all* suspected
  inrefs -- once an object's outset is known it is reused, never retraced);
- Tarjan's strongly-connected-components algorithm [Tar72], because a plain
  single-visit trace misses outrefs across backward edges (Figure 4): all
  objects in a strongly connected component must share one outset, which the
  algorithm installs when the component's *leader* finishes;
- outset unions over a canonical store with memoization
  (:class:`~repro.core.backinfo.outsets.OutsetStore`), which makes total union
  work near-linear in the expected case.

The implementation is iterative (explicit work stack) so heaps with long
reference chains do not hit Python's recursion limit.
"""

from __future__ import annotations

from typing import Dict, Iterable, Iterator, List, Set, Tuple

from ...ids import ObjectId
from .base import BackInfoResult, TraceEnvironment
from .outsets import OutsetStore


def compute_outsets_bottom_up(
    env: TraceEnvironment, suspected_inref_targets: Iterable[ObjectId]
) -> BackInfoResult:
    """Compute outsets of all suspected inrefs in one shared traversal.

    The traversal runs over the heap's flat-graph mirror: objects are int
    indices, an unmarked local successor is suspected, and an object's
    remote references join its outset as it is discovered (its local
    successors are walked after).
    """
    _, succ_local, remote_rows, oids, _ = env.heap.flat_graph()
    marks = env.marks
    is_clean_outref = env.is_clean_outref
    store = OutsetStore()
    add, union = store.add, store.union
    result = BackInfoResult()
    # Per visited index: DFS number, lowlink and (partial) outset id.
    number: Dict[int, int] = {}
    low: Dict[int, int] = {}
    outset: Dict[int, int] = {}
    on_stack: Set[int] = set()
    component: List[int] = []
    work: List[Tuple[int, Iterator[int]]] = []
    edges = 0

    def discover(i: int) -> None:
        nonlocal edges
        number[i] = low[i] = len(number)
        component.append(i)
        on_stack.add(i)
        found = OutsetStore.EMPTY
        remote = remote_rows.get(i, ())
        for ref in remote:
            # A suspected outref joins the outset; a clean outref is skipped
            # (back traces stop there).
            if not is_clean_outref(ref):
                found = add(found, ref)
        outset[i] = found
        local = succ_local[i]
        edges += len(local) + len(remote)
        work.append((i, iter(local)))

    for inref_target in suspected_inref_targets:
        root = env.suspected_index(inref_target)
        if root is None:
            result.outsets[inref_target] = frozenset()
            continue
        if root not in number:
            discover(root)
        while work:
            node, successors = work[-1]
            for t in successors:
                if marks[t]:  # clean, or a dangling reference
                    continue
                if t not in number:
                    discover(t)
                    break
                # Already visited: reuse its (possibly partial) outset.  For
                # a back edge into the current component the partial union
                # is completed when the leader pops the component; for a
                # cross edge into a finished component it is final already.
                outset[node] = union(outset[node], outset[t])
                if t in on_stack and number[t] < low[node]:
                    low[node] = number[t]
            else:
                # node's references are exhausted: finish it.
                work.pop()
                if low[node] == number[node]:
                    # The leader installs its (complete) outset on every
                    # member of its component.  A finished member's lowlink
                    # is never consulted again (the paper's "Leader[z] :=
                    # infinity"): only on-stack nodes pull lowlinks down.
                    leader_outset = outset[node]
                    while True:
                        member = component.pop()
                        on_stack.remove(member)
                        outset[member] = leader_outset
                        if member == node:
                            break
                if work:
                    parent = work[-1][0]
                    outset[parent] = union(outset[parent], outset[node])
                    if low[node] < low[parent]:
                        low[parent] = low[node]
        result.outsets[inref_target] = store.get(outset[root])
    result.visited_objects = set(map(oids.__getitem__, number))
    result.objects_scanned = len(number)
    result.edges_examined = edges
    result.unions_computed = store.unions_computed
    result.union_memo_hits = store.union_memo_hits
    result.distinct_outsets = len(set(result.outsets.values()))
    return result
