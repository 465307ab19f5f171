"""A host-independent gate on the clean-phase memo.

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
changes -- and is not gated: 126 of 3,631 (0.035) at the same seed.  Wall
clocks stay in the ledger (``python -m benchmarks.ledger``, EXPERIMENTS
E31).
"""

from __future__ import annotations

from benchmarks.ledger.scenarios import BigHeap, advance
from repro.gc import localtrace

MIN_REUSED_SHARE = 0.75


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
