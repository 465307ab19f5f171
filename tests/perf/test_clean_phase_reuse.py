"""Host-independent gates on the clean-phase memo.

The clean-phase kernel (``core.distance.trace_clean_phase_flat``) re-uses
the regions of its previous run on the same heap that no mutation since has
touched, and reports how many marked objects it took that way
(``CleanPhaseResult.objects_reused``).  On ``big_heap`` the churn only
touches the objects hanging off each site's hub, never the large chain or
tree, so most of every trace should come from the memo: the share is a
count, exact on every host, where the wall clock it saves is not.
Recorded at introduction: 37,873 of 48,402 marked objects re-used past
warm-up (0.782).

``churn_gc`` is the bypass case -- small heaps whose every trace follows
changes -- and is not gated: 126 of 3,631 (0.035) at the same seed.

Re-use itself must cost no Python step per re-used object: the memo is a
rank byte per index, so the kernel's interpreted lines per unchanged
re-trace follow the roots and the changed rows, not the heap.  Counted with
``sys.settrace`` on the kernel's own code object: 52 lines for a 5,000-object
chain, where a per-index loop ran 10,054.  Wall clocks stay in the ledger
(``python -m benchmarks.ledger``, EXPERIMENTS E31 and E34).
"""

from __future__ import annotations

import sys

from benchmarks.ledger.scenarios import BigHeap, advance
from repro.core.distance import trace_clean_phase_flat
from repro.gc import localtrace
from repro.store.heap import Heap

MIN_REUSED_SHARE = 0.75
MAX_LINES_PER_UNCHANGED_RETRACE = 200


def test_big_heap_traces_mostly_reuse_their_previous_marks(monkeypatch):
    scenario = BigHeap(seed=3, smoke=True)
    advance(scenario, until=scenario.warm_until)
    totals = {"reused": 0, "marked": 0}
    kernel = localtrace.trace_clean_phase_flat

    def counted(*args, **kwargs):
        result = kernel(*args, **kwargs)
        totals["reused"] += result.objects_reused
        totals["marked"] += result.objects_scanned
        return result

    monkeypatch.setattr(localtrace, "trace_clean_phase_flat", counted)
    advance(scenario)
    assert totals["marked"] > 10_000
    share = totals["reused"] / totals["marked"]
    assert share >= MIN_REUSED_SHARE, (
        f"{totals['reused']} of {totals['marked']} marked objects re-used "
        f"({share:.3f}, floor {MIN_REUSED_SHARE})"
    )


def test_an_unchanged_retrace_runs_no_loop_per_reused_object():
    heap = Heap("P")
    objs = [heap.alloc() for _ in range(5_000)]
    for holder, target in zip(objs, objs[1:]):
        holder.add_ref(target.oid)
    roots = [(objs[0].oid, 0)]
    first = trace_clean_phase_flat(heap, roots)
    assert first.objects_scanned == 5_000 and first.objects_reused == 0
    code = trace_clean_phase_flat.__code__
    lines = 0

    def tracer(frame, event, arg):
        if frame.f_code is not code:
            return None
        nonlocal lines
        if event == "line":
            lines += 1
        return tracer

    previous = sys.gettrace()
    sys.settrace(tracer)
    try:
        again = trace_clean_phase_flat(heap, roots)
    finally:
        sys.settrace(previous)
    assert again.objects_reused == again.objects_scanned == 5_000
    assert lines <= MAX_LINES_PER_UNCHANGED_RETRACE, (
        f"{lines} kernel lines to re-use 5,000 unchanged objects "
        f"(budget {MAX_LINES_PER_UNCHANGED_RETRACE})"
    )
