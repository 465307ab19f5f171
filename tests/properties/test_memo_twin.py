"""The local trace's memos against a twin that keeps none.

A local trace keeps three things between runs: the clean phase's regions
(``Heap.clean_memo``), the suspected phase's regions
(``Heap.suspected_memo``) and the tables' records and changed sets
(``InrefTable.scan_for_trace``'s filed order, the records beside both
tables' columns and the outref changed set).  Two worlds replay the same
random alloc / link / unlink / cut / inref-distance / pin / barrier script
on one to three sites; before every trace the twin world forgets all of it
(:func:`drop_memos`: the memos emptied, the records rebuilt from the
columns, every target named changed), so the twin runs what a from-scratch
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
from repro.gc.inrefs import FILED, InrefTable
from repro.gc.localtrace import LocalCollector
from repro.gc.outrefs import OutrefTable
from repro.gc.update import apply_update, apply_update_delta
from repro.metrics import MetricsRecorder
from repro.store.heap import Heap, RegionMemo

from ..conftest import examples

SITES = ("P", "Q", "R")


def drop_memos(collector: LocalCollector) -> None:
    """Make the next trace of ``collector`` run from scratch: no region is
    remembered, every inref is filed anew, and the records beside both
    tables' columns are rebuilt from the columns with every held or shipped
    outref changed."""
    heap, inrefs, outrefs = collector.heap, collector.inrefs, collector.outrefs
    heap.clean_memo = RegionMemo()
    heap.suspected_memo = RegionMemo(sparse=True)
    inrefs._clean_roots.clear()
    inrefs._suspected_keys.clear()
    for slot in inrefs._slot.values():
        inrefs._flags[slot] &= ~FILED
    inrefs._changed.update(inrefs._slot)
    inrefs._nonempty = {e.target for e in inrefs.entries() if e.outset}
    entries = list(outrefs.entries())
    outrefs._nonempty = {e.target for e in entries if e.inset}
    outrefs._suspected = dict.fromkeys(e.target for e in entries if e.is_suspected)
    outrefs._pins = {e.target: e.pin_count for e in entries if e.pin_count > 0}
    outrefs._barrier_flagged = {e.target for e in entries if e.barrier_clean}
    outrefs._changed = {e.target for e in entries}.union(*collector._shipped.values())


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
        result.outref_changes,
        result.outset_changes,
        result.suspected_objects,
        result.clean_phase.unmarked,
        result.removals,
        result.swept,
        result.updates_by_site,
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


OP_KINDS = (
    ["alloc"] * 2
    + ["link"] * 5
    + ["unlink", "cut", "pin"] * 2
    + ["barrier"]
    + ["distance"] * 3
    + ["trace"] * 4
)


OPS = st.lists(
    st.tuples(
        st.sampled_from(OP_KINDS),
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


def assert_twins_agree(n_sites, seed, script):
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


@given(st.integers(1, 3), st.integers(0, 2**16), OPS)
@settings(max_examples=examples(150), deadline=None)
def test_memoised_traces_equal_a_twin_that_forgets_every_memo(n_sites, seed, script):
    assert_twins_agree(n_sites, seed, script)


def test_memo_twin_agrees_on_fixed_scripts():
    """The same twin over forty fixed 80-op scripts, the same on every run.
    Scripts 1 and 37 kill the mutant whose back-info walk names no intruded
    region, which the drawn scripts above kill only on some runs."""
    for k in range(40):
        rng = random.Random(k)
        draw = lambda: rng.randrange(10**6)
        script = [
            (rng.choice(OP_KINDS), rng.choice(SITES), draw(), draw()) for _ in range(80)
        ]
        assert_twins_agree(1 + k % 3, k, script)


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
