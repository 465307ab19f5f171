"""Host-independent gates: a local trace pays for what changed.

Between traces the local collector keeps the outcome of every weakly
connected piece of the heap (``gc.localtrace``), and the ioref tables keep
a changed set beside their epochs, so a trace walks again only the pieces a
change reaches and visits only the table entries whose state moved.  On
smoke ``cycle_waves`` -- every wave suspects a few inrefs and collects a
few cycles, while most of each site's tables stand still -- both are
counts, exact on every host:

- suspected inrefs whose outset the trace kept rather than computed, as a
  share of the suspected inrefs the site holds;
- ioref-table entries a trace visits, as a share of the entries a pass
  over the whole table would visit: inrefs re-filed or dropped by
  ``InrefTable.take_changed``, outrefs diffed by
  ``OutrefTable.scan_committed`` and outrefs given a new verdict by
  ``OutrefTable.install_trace_states`` from the trace's change list (one
  mutation-epoch step each), against the entries the table held at each
  of those passes.  Passes that walked their tables would read 1.0.

The smoke tables are small (about 5 inrefs and 7 outrefs a site per
trace), so a change of two entries is a large share.  Recorded past
warm-up, seed 3, when the suspected phase kept its own regions: 1,107 of
1,337 outsets re-used (0.828), 3,233 of 8,398 entries visited (0.385).
Since the collector keeps whole pieces: 1,167 of 1,337 outsets kept
(0.873); 3,413 of 8,398 entries visited (0.406), counting the inrefs
dropped since the last trace, which the trace must look at to walk their
pieces again.  ``tests/perf/test_tick_follows_changes.py`` gates the
pieces walked and the passes over the trace's own verdicts.  Wall clocks
stay in the ledger (``python -m benchmarks.ledger``, EXPERIMENTS E42 and
E53).
"""

from __future__ import annotations

from benchmarks.ledger.scenarios import CycleWaves, advance
from repro.gc import localtrace
from repro.gc.inrefs import InrefTable
from repro.gc.outrefs import OutrefTable

MIN_OUTSETS_REUSED_SHARE = 0.85
MAX_ENTRIES_VISITED_SHARE = 0.45


def test_cycle_waves_traces_reuse_outsets_and_visit_few_entries(monkeypatch):
    scenario = CycleWaves(seed=3, smoke=True)
    advance(scenario, until=scenario.warm_until)
    totals = dict.fromkeys(("reused", "outsets", "visited", "held"), 0)
    compute = localtrace.LocalCollector.compute
    take_changed = InrefTable.take_changed
    scan_committed = OutrefTable.scan_committed
    install = OutrefTable.install_trace_states

    def counted_compute(self, *args, **kwargs):
        result = compute(self, *args, **kwargs)
        suspected = len(self.inrefs.scan_for_trace().suspected_targets)
        totals["reused"] += suspected - len(result.outsets)
        totals["outsets"] += suspected
        return result

    def counted_take_changed(table):
        totals["visited"] += len(table._changed) + len(table._dropped)
        totals["held"] += len(table)
        return take_changed(table)

    def counted_scan_committed(table):
        totals["visited"] += len(table._changed)
        totals["held"] += len(table)
        return scan_committed(table)

    def counted_install(table, changes, reached):
        totals["held"] += len(table)
        epoch = table.mutation_epoch
        install(table, changes, reached)
        totals["visited"] += table.mutation_epoch - epoch

    monkeypatch.setattr(localtrace.LocalCollector, "compute", counted_compute)
    monkeypatch.setattr(InrefTable, "take_changed", counted_take_changed)
    monkeypatch.setattr(OutrefTable, "scan_committed", counted_scan_committed)
    monkeypatch.setattr(OutrefTable, "install_trace_states", counted_install)
    advance(scenario)
    assert totals["outsets"] > 1000 and totals["held"] > 5000
    reused = totals["reused"] / totals["outsets"]
    visited = totals["visited"] / totals["held"]
    assert reused >= MIN_OUTSETS_REUSED_SHARE, (
        f"{totals['reused']} of {totals['outsets']} outsets re-used "
        f"({reused:.3f}, floor {MIN_OUTSETS_REUSED_SHARE})"
    )
    assert visited <= MAX_ENTRIES_VISITED_SHARE, (
        f"{totals['visited']} entries visited of {totals['held']} held "
        f"({visited:.3f}, ceiling {MAX_ENTRIES_VISITED_SHARE})"
    )
