"""Host-independent gates: a local trace pays for what changed.

Between traces the suspected phase keeps each suspected inref's region
(``Heap.suspected_memo``), and the ioref tables keep a changed set beside
their epochs, so a trace re-walks only the regions whose rows or edges
changed and visits only the table entries whose state moved.  On smoke
``cycle_waves`` -- every wave suspects a few inrefs and collects a few
cycles, while most of each site's tables stand still -- both are counts,
exact on every host:

- back-info outsets re-used, as a share of the outsets the suspected phase
  computes (``BackInfoResult.outsets_reused``);
- ioref-table entries a trace visits, as a share of the entries a pass
  over the whole table would visit: inrefs re-filed by
  ``InrefTable.scan_for_trace``, outrefs diffed by
  ``OutrefTable.scan_committed`` and outrefs given a new verdict by
  ``OutrefTable.install_trace_states`` from the trace's change list (one
  mutation-epoch step each), against the entries the table held at each
  of those passes.  Passes that walked their tables would read 1.0.

The smoke tables are small (about 5 inrefs and 7 outrefs a site per
trace), so a change of two entries is a large share; at full size the same
passes visit 0.10 of the entries.  Recorded at introduction past warm-up,
seed 3: 1,107 of 1,337 outsets re-used (0.828); 3,413 entries visited of
8,398 (0.406).  Since the tables became columns with change lists
(EXPERIMENTS E48) it reads 3,233 of 8,398 (0.385): a removed inref leaves
the trace order when it goes instead of being re-filed by the next scan.
Wall clocks stay in the ledger (``python -m benchmarks.ledger``,
EXPERIMENTS E42).
"""

from __future__ import annotations

from benchmarks.ledger.scenarios import CycleWaves, advance
from repro.gc import localtrace
from repro.gc.inrefs import InrefTable
from repro.gc.outrefs import OutrefTable

MIN_OUTSETS_REUSED_SHARE = 0.80
MAX_ENTRIES_VISITED_SHARE = 0.45


def test_cycle_waves_traces_reuse_outsets_and_visit_few_entries(monkeypatch):
    scenario = CycleWaves(seed=3, smoke=True)
    advance(scenario, until=scenario.warm_until)
    totals = dict.fromkeys(("reused", "outsets", "visited", "held"), 0)
    bottom_up = localtrace.compute_outsets_bottom_up
    scan_inrefs = InrefTable.scan_for_trace
    scan_committed = OutrefTable.scan_committed
    install = OutrefTable.install_trace_states

    def counted_bottom_up(env, targets):
        result = bottom_up(env, targets)
        totals["reused"] += result.outsets_reused
        totals["outsets"] += len(result.outsets)
        return result

    def counted_inref_scan(table):
        totals["visited"] += len(table._changed)
        totals["held"] += len(table)
        return scan_inrefs(table)

    def counted_scan_committed(table):
        totals["visited"] += len(table._changed)
        totals["held"] += len(table)
        return scan_committed(table)

    def counted_install(table, changes, reached):
        totals["held"] += len(table)
        epoch = table.mutation_epoch
        install(table, changes, reached)
        totals["visited"] += table.mutation_epoch - epoch

    monkeypatch.setattr(localtrace, "compute_outsets_bottom_up", counted_bottom_up)
    monkeypatch.setattr(InrefTable, "scan_for_trace", counted_inref_scan)
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
