"""Host-independent gates on the kept clean phase.

The local collector keeps each weakly connected piece of a site's heap
between traces and walks again only the pieces a change reaches
(``gc.localtrace``); a trace's result says how many clean objects it
reached in all (``clean_objects_scanned``) and how many of them it walked
(``clean_objects_walked``).  On ``big_heap`` the churn only touches
the objects hanging off each site's hub, never the large chain or tree, so
most of every trace should be kept: the share is a count, exact on every
host, where the wall clock it saves is not.  Recorded past warm-up, seed
3: 37,873 of 48,402 marked objects re-used (0.782) when the clean-phase
kernel kept its own regions; 38,392 of 48,402 kept (0.793) since the
collector keeps whole pieces.  Nearly all that is walked is each site's
first trace, which falls past warm-up on the smoke run.

``churn_gc`` is the bypass case -- small heaps whose every trace follows
changes -- and is not gated.

Keeping must cost no Python step per kept object: the interpreted lines a
trace of an unchanged 5,000-object chain runs (every line in the repro
package, ``LocalCollector.compute`` and all it calls, counted with
``sys.settrace``) follow the changes, not the heap.  Recorded: 52 lines in
the kernel alone when the kernel kept regions, where a per-index loop ran
10,054; 137 for the whole of ``compute`` since the collector keeps pieces,
146 since it checks the order of a piece's suspected inrefs.
Wall clocks stay in the ledger (``python -m benchmarks.ledger``, EXPERIMENTS
E31, E34 and E53).
"""

from __future__ import annotations

import sys

from benchmarks.ledger.scenarios import BigHeap, advance
from repro.config import GcConfig
from repro.gc import localtrace
from repro.gc.inrefs import InrefTable
from repro.gc.outrefs import OutrefTable
from repro.metrics import MetricsRecorder
from repro.store.heap import Heap

MIN_REUSED_SHARE = 0.75
MAX_LINES_PER_UNCHANGED_RETRACE = 200


def test_big_heap_traces_mostly_reuse_their_previous_marks(monkeypatch):
    scenario = BigHeap(seed=3, smoke=True)
    advance(scenario, until=scenario.warm_until)
    totals = {"reused": 0, "marked": 0}
    compute = localtrace.LocalCollector.compute

    def counted(self, *args, **kwargs):
        result = compute(self, *args, **kwargs)
        totals["reused"] += result.clean_objects_scanned - result.clean_objects_walked
        totals["marked"] += result.clean_objects_scanned
        return result

    monkeypatch.setattr(localtrace.LocalCollector, "compute", counted)
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
    heap.make_persistent_root(objs[0].oid)
    config = GcConfig()
    collector = localtrace.LocalCollector(
        heap,
        InrefTable("P", config.suspicion_threshold, config.initial_back_threshold),
        OutrefTable("P", config.initial_back_threshold),
        config,
        metrics=MetricsRecorder(),
    )
    first = collector.compute()
    collector.commit(first)
    assert first.clean_objects_walked == 5_000
    lines = 0

    def tracer(frame, event, arg):
        if not frame.f_code.co_filename.startswith(PACKAGE):
            return None
        nonlocal lines
        if event == "line":
            lines += 1
        return tracer

    previous = sys.gettrace()
    sys.settrace(tracer)
    try:
        again = collector.compute()
    finally:
        sys.settrace(previous)
    collector.commit(again)
    assert again.clean_objects_scanned == 5_000 and again.clean_objects_walked == 0
    assert lines <= MAX_LINES_PER_UNCHANGED_RETRACE, (
        f"{lines} interpreted lines to keep 5,000 unchanged objects "
        f"(budget {MAX_LINES_PER_UNCHANGED_RETRACE})"
    )


PACKAGE = localtrace.__file__.rsplit("/gc/", 1)[0]
