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

**Memo.**  ``Heap.suspected_memo`` keeps, under each suspected inref's
index, what the traversal found from it last time: its *region* (the
objects it visited first), every region member's outset, and what the
traversal read at the region's edge -- the marks of the members and of
the clean objects their references led to, the outsets of objects earlier
regions had visited, and the clean-outref status of each remote reference
the members hold -- plus the unions it computed beyond the trivial ones.
An inref whose region finds all of that unchanged takes the region back
without walking it: the traversal from it would read the same inputs and
repeat itself.  Its rows are unchanged (``Heap.take_dirty`` dropped every
region holding a changed row); no earlier region of this run visited one
of them (regions are disjoint, and a walk that visits a row names the
row's remembered owner as *intruded*); and every other input is compared.
The replayed unions keep ``unions_computed`` and ``union_memo_hits`` what
the walk would have counted; a re-used region still counts its objects and
edges as scanned.
"""

from __future__ import annotations

from itertools import chain, filterfalse, islice
from typing import Dict, FrozenSet, Iterable, Iterator, List, Set, Tuple

from ...ids import ObjectId
from ...store.heap import RegionMemo
from .base import BackInfoResult, TraceEnvironment
from .outsets import OutsetStore


class _Outsets(dict):
    """Outset id per visited index.  The members of a re-used region are
    not walked: they come with their outset sets (``sets``), interned on
    first read."""

    __slots__ = ("sets", "intern")

    def __missing__(self, index: int) -> int:
        outset_id = self[index] = self.intern(self.sets[index])
        return outset_id


def compute_outsets_bottom_up(
    env: TraceEnvironment, suspected_inref_targets: Iterable[ObjectId]
) -> BackInfoResult:
    """Compute outsets of all suspected inrefs in one shared traversal.

    The traversal runs over the heap's flat-graph mirror: objects are int
    indices, an unmarked local successor is suspected, and an object's
    remote references join its outset as it is discovered (its local
    successors are walked after).
    """
    heap = env.heap
    idx_map, succ_local, remote_rows, oids, _ = heap.flat_graph()
    marks = env.marks
    marked = marks.__getitem__
    is_clean_outref = env.is_clean_outref
    heap.take_dirty()
    memo = heap.suspected_memo
    regions = memo.regions
    owner = memo.owner  # sparse: exactly the remembered rows
    store = OutsetStore()
    union, intern, get_set = store.union, store.intern, store.get
    add = store.add
    unions_log: List[Tuple[int, int]] = []
    store.log = unions_log
    result = BackInfoResult()
    outsets = result.outsets
    # Per walked index: DFS number, lowlink and (partial) outset id; the
    # members of re-used regions are in ``reused`` instead, each with its
    # outset set.
    number: Dict[int, int] = {}
    low: Dict[int, int] = {}
    reused: Dict[int, FrozenSet[ObjectId]] = {}
    outset = _Outsets()
    outset.sets = reused
    outset.intern = intern
    on_stack: Set[int] = set()
    component: List[int] = []
    work: List[Tuple[int, Iterator[int]]] = []
    edges = 0
    kept = {}
    intruded: Set[int] = set()
    reused_outsets = 0

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

    def outsets_of(indices: Iterable[int]) -> tuple:
        """The outsets ``indices`` have now (None for one not visited)."""
        return tuple(
            get_set(outset[i]) if i in number or i in reused else None for i in indices
        )

    def remember(root: int, start: int, start_edges: int) -> tuple:
        """The record of the region the walk from ``root`` just visited,
        with ``owner`` pointed at it."""
        nodes = list(islice(number, start, None))
        for i in nodes:
            holder = owner.get(i)
            if holder != root:
                if holder is not None:
                    intruded.add(holder)
                owner[i] = root
        successors = list(chain.from_iterable(map(succ_local.__getitem__, nodes)))
        clean = list(filter(marked, successors))
        prior = tuple(set(filterfalse(marked, successors)).difference(nodes))
        refs = tuple(chain.from_iterable(filter(None, map(remote_rows.get, nodes))))
        probe, expected = RegionMemo.probe(
            nodes + clean, [0] * len(nodes) + [1] * len(clean)
        )
        return (
            dict(zip(nodes, map(get_set, map(outset.__getitem__, nodes)))),
            probe,
            expected,
            prior,
            outsets_of(prior) if prior else None,
            refs,
            tuple(map(is_clean_outref, refs)),
            get_set(outset[root]),
            tuple((get_set(left), get_set(right)) for left, right in unions_log),
            edges - start_edges,
        )

    for inref_target in suspected_inref_targets:
        root = idx_map.get(inref_target)
        if root is None or marks[root]:
            outsets[inref_target] = frozenset()
            continue
        if root in number or root in reused:
            outsets[inref_target] = get_set(outset[root])
            continue
        region = regions.get(root)
        if (
            region is not None
            and root not in intruded
            and region[1](marks) == region[2]
            and (not region[3] or outsets_of(region[3]) == region[4])
            and tuple(map(is_clean_outref, region[5])) == region[6]
        ):
            reused.update(region[0])
            for left, right in region[8]:
                union(intern(left), intern(right))
            edges += region[9]
            kept[root] = region
            outsets[inref_target] = region[7]
            reused_outsets += 1
            continue
        start, start_edges = len(number), edges
        unions_log.clear()
        discover(root)
        while work:
            node, successors = work[-1]
            for t in successors:
                if marks[t]:  # clean, or a dangling reference
                    continue
                if t not in number and t not in reused:
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
        kept[root] = remember(root, start, start_edges)
        outsets[inref_target] = get_set(outset[root])
    # The owner map holds exactly the rows of the regions kept.
    for root, record in regions.items():
        new = kept.get(root)
        if new is not record:
            for i in record[0]:
                if owner.get(i) == root and (new is None or i not in new[0]):
                    del owner[i]
    memo.regions = kept
    result.visited_objects = set(map(oids.__getitem__, chain(number, reused)))
    result.objects_scanned = len(number) + len(reused)
    result.edges_examined = edges
    result.unions_computed = store.unions_computed
    result.union_memo_hits = store.union_memo_hits
    result.distinct_outsets = len(set(outsets.values()))
    result.outsets_reused = reused_outsets
    return result
