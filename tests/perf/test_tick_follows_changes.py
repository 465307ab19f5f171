"""Host-independent gate: a GC tick pays only for the pieces that changed.

The local collector keeps each weakly connected piece of a site's heap --
its rows, marks, suspected inrefs, held and reached outrefs and counter
contributions -- and walks again only the pieces a change since the last
committed trace reaches (``gc.localtrace``); the passes after the walk read
the walked pieces' verdicts only.  On ``cycle_waves`` past warm-up, seed 3,
every count below is exact on any host, summed over all traces and taken
as a share of what the sites hold at each trace:

- pieces walked, of the pieces the site holds;
- roots the clean phase takes (persistent, variable and clean inrefs), of
  the roots the site holds -- the per-root loop;
- table entries the passes after the walk visit, of what whole passes
  visit: ``OutrefTable.diff_verdicts`` and ``InrefTable.nearest`` each
  visit outrefs, ``invert_outsets`` and ``InrefTable.diff_outsets`` inrefs;
- rows walked or swept, of the objects the site holds.

When every trace walked the whole site (before E53), each share read 1.0.
Recorded at introduction: pieces 0.033, roots 0.019, table entries 0.076
and rows 0.042.  The run is full size: the smoke run's sites hold about 7
outrefs each and 35 % of them take a new verdict per trace (1,214 changes
among 1,215 verdicts the traces visited), so no trace, however exact,
reads below 0.25 there on table entries (pieces 0.117, roots 0.100, rows
0.174).  Wall clocks stay in the ledger (``python -m benchmarks.ledger``,
EXPERIMENTS E53).
"""

from __future__ import annotations

from benchmarks.ledger.scenarios import CycleWaves, advance
from repro.gc import localtrace

MAX_SHARE = 0.20


def test_cycle_waves_ticks_walk_and_visit_only_what_changed(monkeypatch):
    scenario = CycleWaves(seed=3)
    advance(scenario, until=scenario.warm_until)
    names = ("pieces", "roots", "entries", "sweep")
    visited = dict.fromkeys(names, 0)
    held = dict.fromkeys(names, 0)
    compute = localtrace.LocalCollector.compute
    kernel = localtrace.trace_clean_phase_flat
    taken = []

    def counted_kernel(heap, roots, *args, **kwargs):
        taken.append(len(roots))
        return kernel(heap, roots, *args, **kwargs)

    def counted(self, *args, **kwargs):
        taken.clear()
        result = compute(self, *args, **kwargs)
        heap, inrefs, outrefs = self.heap, self.inrefs, self.outrefs
        roots = len(heap.persistent_roots | heap.variable_roots)
        roots += len(inrefs.scan_for_trace().clean_roots)
        # diff_verdicts and nearest each visit outrefs; invert_outsets and
        # diff_outsets each visit inrefs: a whole pass visits them all.
        entries = len(result.outref_states) + len(result.insets)
        entries += 2 * len(result.outsets) + len(result.outset_others)
        walked = result.clean_objects_walked + result.suspected_objects_walked
        for name, seen, size in (
            ("pieces", result.pieces_walked, result.pieces_held),
            ("roots", sum(taken), roots),
            ("entries", entries, 2 * (len(outrefs) + len(inrefs))),
            ("sweep", walked + len(result.garbage), len(heap)),
        ):
            visited[name] += seen
            held[name] += size
        return result

    monkeypatch.setattr(localtrace.LocalCollector, "compute", counted)
    monkeypatch.setattr(localtrace, "trace_clean_phase_flat", counted_kernel)
    advance(scenario)
    assert min(held.values()) > 1000
    shares = {name: visited[name] / held[name] for name in names}
    for name, share in shares.items():
        assert share <= MAX_SHARE, (
            f"{name}: {visited[name]} visited of {held[name]} held "
            f"({share:.3f}, ceiling {MAX_SHARE})"
        )
