"""The local trace's memos against a twin that keeps none.

A local trace keeps three things between runs: the clean phase's regions
(``Heap.clean_memo``), the suspected phase's regions
(``Heap.suspected_memo``) and the tables' records and changed sets
(``InrefTable.scan_for_trace``'s filed order, ``OutrefTable``'s installed
states, suspected record and changed set).  Two worlds replay the same
random alloc / link / unlink / cut / inref-distance / pin / barrier script
on one to three sites; before every trace the twin world forgets all of it
(:func:`drop_memos`: the memos emptied, the records rebuilt from the
entries, every target named changed), so the twin runs what a from-scratch
trace runs.  After every trace the two must agree on every field of the
trace result, on the counters and on the tables, and the memoised world's
invariants must hold.  A ledger scenario closes the loop end to end: smoke
``cycle_waves`` with every memo dropped before every trace ends in the same
``sim_digest`` as the memoised run.
"""

from __future__ import annotations

import gc
import random

from hypothesis import given, settings
from hypothesis import strategies as st

from benchmarks.ledger import worker
from repro.config import GcConfig
from repro.gc.inrefs import InrefTable
from repro.gc.localtrace import LocalCollector
from repro.gc.outrefs import OutrefTable
from repro.gc.update import apply_update, apply_update_delta
from repro.metrics import MetricsRecorder
from repro.store.heap import Heap, RegionMemo

SITES = ("P", "Q", "R")


def drop_memos(collector: LocalCollector) -> None:
    """Make the next trace of ``collector`` run from scratch: no region is
    remembered, every inref is filed anew, and the outref table's records
    are rebuilt from its entries with every held or shipped target changed."""
    heap, inrefs, outrefs = collector.heap, collector.inrefs, collector.outrefs
    heap.clean_memo = RegionMemo()
    heap.suspected_memo = RegionMemo(sparse=True)
    inrefs._filed.clear()
    inrefs._clean_keys.clear()
    inrefs._clean_roots.clear()
    inrefs._suspected_keys.clear()
    inrefs._distances.clear()
    inrefs._changed.update(inrefs._entries)
    inrefs._outsets = {t: e.outset for t, e in inrefs._entries.items() if e.outset}
    entries = outrefs._entries
    outrefs._installed = {
        t: e.distance if e._traced_clean else ~e.distance for t, e in entries.items()
    }
    outrefs._insets = {t: e.inset for t, e in entries.items() if e.inset}
    outrefs._suspected = {t: e for t, e in sorted(entries.items()) if e.is_suspected}
    outrefs._pinned = {t for t, e in entries.items() if e.pin_count > 0}
    outrefs._barrier_flagged = {t for t, e in entries.items() if e._barrier_clean}
    outrefs._changed = set(entries).union(*collector._shipped.values())


class World:
    """One to three sites' heaps, tables and local collectors, no network:
    a trace's updates are applied to their destination at once."""

    def __init__(self, sites, memoised: bool):
        config = GcConfig(suspicion_threshold=2, full_update_period=3)
        self.memoised = memoised
        self.metrics = MetricsRecorder()
        self.collectors = {}
        for site in sites:
            heap = Heap(site)
            inrefs = InrefTable(site, config.suspicion_threshold, 0)
            outrefs = OutrefTable(site, 0)
            self.collectors[site] = LocalCollector(
                heap, inrefs, outrefs, config, metrics=self.metrics
            )
        self.objects = {site: [] for site in sites}

    def pick(self, site, n):
        objects = [o for o in self.objects[site] if self.collectors[site].heap.contains(o)]
        return objects[n % len(objects)] if objects else None

    def apply(self, op):
        kind, site, a, b = op
        collector = self.collectors[site]
        heap, inrefs, outrefs = collector.heap, collector.inrefs, collector.outrefs
        if kind == "alloc":
            oid = heap.alloc(persistent_root=a % 8 == 0).oid
            self.objects[site].append(oid)
        elif kind == "link":
            holder = self.pick(site, a)
            peer = sorted(self.collectors)[b % len(self.collectors)]
            target = self.pick(peer, b // 7)
            if holder is None or target is None:
                return
            heap.add_ref(holder, target)
            if peer != site:
                outrefs.ensure(target, clean=True, distance=1)
                self.collectors[peer].inrefs.ensure(target, source=site, distance=1)
        elif kind == "unlink":
            holder = self.pick(site, a)
            if holder is None:
                return
            refs = heap.get(holder).refs
            if refs:
                heap.remove_ref(holder, refs[b % len(refs)])
        elif kind == "cut":
            roots = sorted(heap.persistent_roots)
            if roots:
                heap.drop_persistent_root(roots[a % len(roots)])
        elif kind == "distance":
            targets = inrefs.targets()
            if targets:
                entry = inrefs.get(targets[a % len(targets)])
                source = sorted(entry.sources)[b % len(entry.sources)]
                entry.set_source_distance(source, b % 6)
        elif kind == "pin":
            targets = outrefs.targets()
            if targets:
                entry = outrefs.get(targets[a % len(targets)])
                if b % 2 and entry.pin_count:
                    entry.unpin()
                else:
                    entry.pin()
        elif kind == "barrier":
            targets = inrefs.targets()
            if targets:
                inrefs.get(targets[a % len(targets)]).barrier_clean = bool(b % 2)
            targets = outrefs.targets()
            if targets:
                outrefs.get(targets[b % len(targets)]).barrier_clean = bool(a % 2)
        elif kind == "trace":
            return self.trace(site)

    def trace(self, site):
        collector = self.collectors[site]
        if not self.memoised:
            drop_memos(collector)
        result = collector.compute(mode="full")
        collector.commit(result)
        for dst, payload in sorted(result.updates_by_site.items()):
            inrefs = self.collectors[dst].inrefs
            if payload.full:
                apply_update(inrefs, site, payload)
            else:
                apply_update_delta(inrefs, site, payload)
        return result


def trace_fields(result):
    return (
        result.outref_states,
        result.outsets,
        result.insets,
        result.suspected_objects,
        result.clean_phase.unmarked,
        result.removals,
        result.swept,
        result.updates_by_site,
        [entry.target for entry in result.suspected_outrefs or ()],
        result.clean_phase.objects_scanned,
        result.clean_phase.edges_examined,
        result.backinfo.objects_scanned,
        result.backinfo.edges_examined,
        result.backinfo.unions_computed,
        result.backinfo.union_memo_hits,
    )


def table_state(collector):
    inrefs = [
        (e.target, dict(e.sources), e.outset, e.garbage, e.barrier_clean)
        for e in collector.inrefs.entries()
    ]
    outrefs = [
        (e.target, e.distance, e.traced_clean, e.inset, e.pin_count, e.barrier_clean)
        for e in collector.outrefs.entries()
    ]
    return inrefs, outrefs, collector.outrefs.suspected_entries() == [
        e for e in collector.outrefs.entries() if e.is_suspected
    ]


OPS = st.lists(
    st.tuples(
        st.sampled_from(
            ["alloc"] * 2
            + ["link"] * 5
            + ["unlink", "cut", "pin"] * 2
            + ["barrier"]
            + ["distance"] * 3
            + ["trace"] * 4
        ),
        st.sampled_from(SITES),
        st.integers(0, 10**6),
        st.integers(0, 10**6),
    ),
    max_size=80,
)


def seeded_graph(seed, sites):
    """Ops that give every site a dozen objects, some roots, and links
    within and across sites, with some inrefs past the suspicion threshold:
    material for clean and suspected regions alike."""
    rng = random.Random(seed)
    ops = [("alloc", site, rng.randrange(10**6), 0) for site in sites for _ in range(12)]
    ops += [
        ("link", rng.choice(sites), rng.randrange(10**6), rng.randrange(10**6))
        for _ in range(15 * len(sites))
    ]
    ops += [("trace", site, 0, 0) for site in sites]
    ops += [
        ("distance", rng.choice(sites), rng.randrange(10**6), rng.randrange(10**6))
        for _ in range(4 * len(sites))
    ]
    return ops


@given(st.integers(1, 3), st.integers(0, 2**16), OPS)
@settings(max_examples=150, deadline=None)
def test_memoised_traces_equal_a_twin_that_forgets_every_memo(n_sites, seed, script):
    sites = SITES[:n_sites]
    memoised, twin = World(sites, memoised=True), World(sites, memoised=False)
    closing = [("trace", site, 0, 0) for site in sites] * 2
    for kind, site, a, b in seeded_graph(seed, sites) + script + closing:
        if site not in sites:
            site = sites[a % n_sites]
        got = memoised.apply((kind, site, a, b))
        want = twin.apply((kind, site, a, b))
        if kind != "trace":
            continue
        assert trace_fields(got) == trace_fields(want)
        assert list(memoised.metrics.snapshot().counters.items()) == list(
            twin.metrics.snapshot().counters.items()
        )
        for s in sites:
            assert table_state(memoised.collectors[s]) == table_state(twin.collectors[s])
            memoised.collectors[s].heap.check_flat_mirror()
            memoised.collectors[s].check_tables()


def _digest(workload, forget):
    if forget:
        compute = LocalCollector.compute

        def forgetful(self, *args, **kwargs):
            drop_memos(self)
            return compute(self, *args, **kwargs)

        LocalCollector.compute = forgetful
    try:
        result = worker.run(workload, 3, "timed", smoke=True)
    finally:
        gc.unfreeze()
        if forget:
            LocalCollector.compute = compute
    assert not [check for check in result["checks"] if not check[1]]
    return result["sim_digest"], result["counter_order_digest"]


def test_cycle_waves_without_memos_ends_in_the_same_digest():
    assert _digest("cycle_waves", forget=True) == _digest("cycle_waves", forget=False)
