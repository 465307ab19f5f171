"""A host-independent memory gate: bytes the ioref tables take per ioref.

Each inref and outref is a slot of its table's columns (``gc/columns.py``):
no per-entry object, no per-entry source dict for a one-source inref, and
visited marks only where a live back trace put them.  Smoke
``cycle_waves`` at seed 3 is run past its warm-up under ``tracemalloc``
(8 frames), and every traced block that a frame in ``gc/inrefs.py``,
``gc/outrefs.py`` or ``gc/columns.py`` allocated and that is still live is
counted, over the iorefs the sites then hold.  The count is of allocations,
not pages, so it is the same on any host: 533 B per ioref on CPython 3.11
(522 iorefs), where per-entry objects with a source map and a visited set
each took 960 B.  At full size the same count reads 239 B (11,156 iorefs;
667 B before); the smoke tables are small, so their fixed per-table records
weigh more.  Peak RSS stays in the ledger (``python -m benchmarks.ledger``,
EXPERIMENTS E48).
"""

from __future__ import annotations

import tracemalloc

from benchmarks.ledger.scenarios import CycleWaves, advance

#: Traced bytes per ioref held after the smoke warm-up.
BYTES_PER_IOREF_BOUND = 600

TABLE_FILES = ("gc/inrefs.py", "gc/outrefs.py", "gc/columns.py")


def test_cycle_waves_bytes_per_ioref():
    tracemalloc.start(8)
    try:
        scenario = CycleWaves(seed=3, smoke=True)
        advance(scenario, until=scenario.warm_until)
        snapshot = tracemalloc.take_snapshot()
    finally:
        tracemalloc.stop()
    held = sum(
        trace.size
        for trace in snapshot.traces
        if any(frame.filename.endswith(TABLE_FILES) for frame in trace.traceback)
    )
    sites = scenario.sim.sites.values()
    iorefs = sum(len(site.inrefs) + len(site.outrefs) for site in sites)
    assert iorefs > 500
    per_ioref = held / iorefs
    assert per_ioref < BYTES_PER_IOREF_BOUND, f"{per_ioref:.0f} B per ioref"
