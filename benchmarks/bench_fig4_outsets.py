"""F4 -- Figure 4: plain tracing does not compute full reachability.

The figure: inrefs a and b at site Q share object z; a naive single-visit
trace from a stops the later trace from b at z, so b's outset would miss the
outref c -- and the back edge z -> x -> y makes {y, z, x} one strongly
connected component whose members must share one outset.  Both section-5
algorithms get this right; a deliberately naive single-visit trace (shown
here as the counterfactual) gets it wrong.
"""

import pytest

from repro.core.backinfo import (
    TraceEnvironment,
    compute_outsets_bottom_up,
    compute_outsets_independent,
)
from repro.harness.report import Table
from repro.ids import ObjectId
from repro.store.heap import Heap


def build_figure4_heap():
    """Site Q of Figure 4: a -> z; b -> y; y -> z, y -> d; z -> x; x -> y, x -> c."""
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
    return heap, {"a": a.oid, "b": b.oid, "x": x.oid, "y": y.oid, "z": z.oid, "c": c, "d": d}


def naive_single_visit_outsets(heap, roots):
    """The broken first cut from section 5.2 (no SCC handling, global marks)."""
    outsets = {}
    marked = set()

    def trace(oid):
        if oid in marked:
            return outsets.get(oid, frozenset())
        marked.add(oid)
        collected = set()
        for ref in heap.get(oid).iter_refs():
            if ref.site != "Q":
                collected.add(ref)
            elif heap.contains(ref):
                collected |= trace(ref)
        outsets[oid] = frozenset(collected)
        return outsets[oid]

    return {root: trace(root) for root in roots}


def env_for(heap):
    return TraceEnvironment(
        heap=heap, marks=heap.fresh_marks(), is_clean_outref=lambda ref: False
    )


def test_fig4_scc_outsets(benchmark, record_table):
    def run():
        heap, names = build_figure4_heap()
        roots = [names["a"], names["b"]]
        naive = naive_single_visit_outsets(heap, roots)
        bottom_up = compute_outsets_bottom_up(env_for(heap), roots)
        independent = compute_outsets_independent(env_for(heap), roots)
        return names, naive, bottom_up, independent

    names, naive, bottom_up, independent = benchmark.pedantic(
        run, rounds=1, iterations=1
    )
    full = {names["c"], names["d"]}

    def show(outset):
        label = {names["c"]: "c", names["d"]: "d"}
        return "{" + ",".join(sorted(label[x] for x in outset)) + "}"

    table = Table(
        "F4 (Figure 4): outset of each inref by algorithm (correct = {c,d})",
        ["inref", "naive single-visit", "independent (5.1)", "bottom-up (5.2)"],
    )
    for key in ("a", "b"):
        table.add_row(
            key,
            show(naive[names[key]]),
            show(independent.outsets[names[key]]),
            show(bottom_up.outsets[names[key]]),
        )
    record_table("fig4_outsets", table)

    # The naive trace misses an outref on at least one inref (the figure's
    # point), while both real algorithms are exact and agree.
    assert any(naive[names[key]] != full for key in ("a", "b"))
    assert bottom_up.outsets[names["a"]] == full
    assert bottom_up.outsets[names["b"]] == full
    assert independent.outsets == bottom_up.outsets
    # SCC members share one outset object identity-wise in the store.
    assert bottom_up.outsets[names["a"]] == bottom_up.outsets[names["b"]]
