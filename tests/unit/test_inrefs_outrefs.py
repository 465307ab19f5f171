"""Unit tests for the inref and outref tables."""

import pytest

from repro.errors import GcInvariantError
from repro.gc.inrefs import InrefTable
from repro.gc.outrefs import OutrefTable
from repro.ids import ObjectId, TraceId


def make_inrefs(threshold=4, back=12):
    return InrefTable("R", suspicion_threshold=threshold, initial_back_threshold=back)


def make_outrefs(back=12):
    return OutrefTable("P", initial_back_threshold=back)


# -- inrefs ---------------------------------------------------------------------


def test_inref_ensure_creates_with_conservative_distance():
    table = make_inrefs()
    entry = table.ensure(ObjectId("R", 0), source="P")
    assert entry.sources == {"P": 1}
    assert entry.distance == 1
    assert entry.back_threshold == 12


def test_inref_rejects_foreign_target():
    table = make_inrefs()
    with pytest.raises(GcInvariantError):
        table.ensure(ObjectId("Q", 0), source="P")


def test_inref_distance_is_min_over_sources():
    table = make_inrefs()
    entry = table.ensure(ObjectId("R", 0), source="P", distance=7)
    entry.add_source("Q", 3)
    assert entry.distance == 3


def test_add_source_keeps_smaller_estimate():
    table = make_inrefs()
    entry = table.ensure(ObjectId("R", 0), source="P", distance=2)
    entry.add_source("P", 9)
    assert entry.sources["P"] == 2


def test_set_source_distance_is_authoritative_increase():
    table = make_inrefs()
    entry = table.ensure(ObjectId("R", 0), source="P", distance=2)
    entry.set_source_distance("P", 9)
    assert entry.sources["P"] == 9


def test_set_source_distance_ignores_unknown_source():
    table = make_inrefs()
    entry = table.ensure(ObjectId("R", 0), source="P")
    entry.set_source_distance("Q", 5)
    assert "Q" not in entry.sources


def test_remove_source_drops_empty_entry():
    table = make_inrefs()
    target = ObjectId("R", 0)
    entry = table.ensure(target, source="P")
    table.ensure(target, source="Q")
    entry.remove_source("Q")
    assert entry.sources == {"P": 1}
    assert table.remove_source(target, "P")
    assert target not in table
    assert not table.remove_source(target, "P")
    with pytest.raises(GcInvariantError):
        entry.distance  # the handle's entry is gone


def test_handle_never_reads_a_reused_slot():
    """Guard: a removed entry's slot goes to the next new entry, and a
    handle on the removed one raises rather than read the newcomer."""
    inrefs, outrefs = make_inrefs(), make_outrefs()
    old_in = inrefs.ensure(ObjectId("R", 0), source="P", distance=3)
    old_out = outrefs.ensure(ObjectId("R", 0), clean=False, distance=3)
    inrefs.remove(ObjectId("R", 0))
    outrefs.remove(ObjectId("R", 0))
    new_in = inrefs.ensure(ObjectId("R", 1), source="Q", distance=5)
    new_out = outrefs.ensure(ObjectId("R", 1), distance=5)
    assert (new_in.slot, new_out.slot) == (old_in.slot, old_out.slot)
    for read in ("distance", "sources", "back_threshold", "visited", "garbage"):
        with pytest.raises(GcInvariantError):
            getattr(old_in, read)
    for read in ("distance", "is_clean", "inset", "pin_count", "traced_clean"):
        with pytest.raises(GcInvariantError):
            getattr(old_out, read)
    assert (new_in.distance, new_out.distance) == (5, 5)


def test_clean_vs_suspected_by_threshold():
    table = make_inrefs(threshold=4)
    near = table.ensure(ObjectId("R", 0), source="P", distance=4)
    far = table.ensure(ObjectId("R", 1), source="P", distance=5)
    assert near.is_clean(4) and not near.is_suspected(4)
    assert far.is_suspected(4) and not far.is_clean(4)
    assert {e.target for e in table.entries() if e.is_suspected(4)} == {far.target}


def test_barrier_clean_overrides_distance():
    table = make_inrefs(threshold=4)
    entry = table.ensure(ObjectId("R", 0), source="P", distance=99)
    entry.barrier_clean = True
    assert entry.is_clean(4)
    table.reset_barrier_cleans()
    assert entry.is_suspected(4)


def test_garbage_flag_is_never_clean():
    table = make_inrefs(threshold=4)
    entry = table.ensure(ObjectId("R", 0), source="P", distance=1)
    entry.garbage = True
    assert not entry.is_clean(4)
    assert entry.target not in {t for t, _ in table.scan_for_trace().clean_roots}
    assert table.garbage_targets() == [entry.target]


def test_trace_scan_orders_roots_by_distance():
    table = make_inrefs(threshold=4)
    table.ensure(ObjectId("R", 0), source="P", distance=9)
    table.ensure(ObjectId("R", 1), source="P", distance=2)
    table.ensure(ObjectId("R", 2), source="P", distance=5)
    table.ensure(ObjectId("R", 3), source="P", distance=1)
    table.ensure(ObjectId("R", 4), source="P", distance=1).garbage = True
    table.ensure(ObjectId("R", 5), source="P", distance=7).barrier_clean = True
    scan = table.scan_for_trace()
    # Increasing (distance, target); garbage-flagged entries are no roots;
    # a barrier clean makes a far inref a root until the trace commits.
    assert scan.clean_roots == [
        (ObjectId("R", 3), 1),
        (ObjectId("R", 1), 2),
        (ObjectId("R", 5), 7),
    ]
    assert scan.suspected_targets == [ObjectId("R", 2), ObjectId("R", 0)]
    assert [e.distance for e in table.entries()] == [9, 2, 5, 1, 1, 7]


def test_scan_refiles_exactly_the_changed_inrefs():
    """Guard: every change a trace reads -- a new minimum distance, a
    garbage flag, a barrier clean, a removal -- names the inref in what the
    next trace takes (a removal apart from the changed set), and taking
    re-files those alone; an inref that was and is suspected is told
    apart."""
    table = make_inrefs(threshold=4)
    near, far, gone, farther = (ObjectId("R", k) for k in range(4))
    table.ensure(near, source="P", distance=2)
    table.ensure(far, source="P", distance=7)
    table.ensure(gone, source="P", distance=3)
    table.ensure(farther, source="P", distance=8)
    assert table.take_changed() == ({near, far, gone, farther}, set())
    assert table._changed == set()
    table.set_source(near, "P", 6)  # crosses the threshold
    table.get(far).barrier_clean = True
    table.remove(gone)  # leaves the table at once
    table.set_source(farther, "P", 9)  # stays suspected
    assert table._changed == {near, far, farther}
    assert table.take_changed() == ({near, far, gone, farther}, {farther})
    scan = table.scan_for_trace()
    assert scan.clean_roots == [(far, 7)]
    assert scan.suspected_targets == [near, farther]
    assert table.nearest({near: [near], far: [near, far], gone: []}) == {
        near: 6, far: 6, gone: 0
    }
    table.set_source(far, "P", 3)  # stays clean
    assert table.take_changed() == ({far}, set())
    table.get(near).garbage = True
    assert table.scan_for_trace([near, far]).suspected_targets == []
    table.check_changed()


# -- source-list mutators ---------------------------------------------------------
#
# Every table method that changes a source list must refresh the entry's
# distance, advance the table's distance epoch when that minimum moves, and
# keep the per-source index (``targets_from_source``) in step.  The entry's
# ``sources`` is a read-only view.


def _sourced_entry():
    table = make_inrefs()
    target = ObjectId("R", 0)
    entry = table.ensure(target, source="P", distance=5)
    return table, target, entry


def test_sources_update_notifies():
    table, target, entry = _sourced_entry()
    before = table.distance_epoch
    table.set_source(target, "Q", 2)
    table.set_source(target, "S", 9)
    assert entry.distance == 2
    assert table.distance_epoch > before
    assert table.targets_from_source("Q") == [target]
    assert table.targets_from_source("S") == [target]
    with pytest.raises(TypeError):
        entry.sources["P"] = 1  # the view is read-only


def test_sources_clear_notifies():
    table, target, entry = _sourced_entry()
    entry.add_source("Q", 2)
    before = table.distance_epoch
    for source in entry.sources:
        table.remove_source(target, source)
    assert target not in table  # an inref whose source list empties goes
    assert table.distance_epoch > before
    assert table.targets_from_source("P") == table.targets_from_source("Q") == []


def test_sources_pop_and_del_notify():
    table, target, entry = _sourced_entry()
    entry.add_source("Q", 2)
    entry.add_source("S", 1)
    before = table.distance_epoch
    assert table.remove_source(target, "S")
    assert not table.remove_source(target, "S")
    entry.remove_source("Q")
    assert entry.distance == 5
    assert table.distance_epoch > before
    assert table.targets_from_source("Q") == table.targets_from_source("S") == []


def test_rewriting_a_source_with_its_own_distance_is_silent():
    table, target, entry = _sourced_entry()
    before = table.distance_epoch
    table.set_source(target, "P", 5)
    entry.set_source_distance("P", 5)
    assert table.distance_epoch == before


def test_source_changes_that_keep_the_minimum_leave_the_distance_epoch():
    table, target, entry = _sourced_entry()
    entry.add_source("Q", 2)
    before = table.distance_epoch
    entry.add_source("S", 9)  # a farther source
    table.set_source(target, "P", 7)  # re-set a non-minimal source
    entry.remove_source("S")  # remove a non-minimal source
    assert entry.distance == 2
    assert table.distance_epoch == before
    # The per-source index still follows every change.
    assert table.targets_from_source("S") == []
    assert table.targets_from_source("P") == [target]


def test_moving_the_minimum_advances_the_distance_epoch():
    table, target, entry = _sourced_entry()
    entry.add_source("Q", 2)
    before = table.distance_epoch
    table.set_source(target, "Q", 3)  # the minimum source moves
    assert (entry.distance, table.distance_epoch) == (3, before + 1)
    entry.add_source("S", 1)  # a nearer source
    assert (entry.distance, table.distance_epoch) == (1, before + 2)
    entry.remove_source("S")  # the minimal source goes
    assert (entry.distance, table.distance_epoch) == (3, before + 3)


def test_reset_barrier_cleans_touches_only_flagged_entries():
    table = make_inrefs(threshold=4)
    flagged = table.ensure(ObjectId("R", 0), source="P", distance=9)
    table.ensure(ObjectId("R", 1), source="P", distance=9)
    gone = table.ensure(ObjectId("R", 2), source="P", distance=9)
    flagged.barrier_clean = True
    gone.barrier_clean = True
    table.remove(gone.target)
    structure = table.structure_epoch
    table.reset_barrier_cleans()
    assert not flagged.barrier_clean
    assert table.structure_epoch == structure + 1  # the flagged entry only
    table.reset_barrier_cleans()  # nothing flagged: nothing moves
    assert table.structure_epoch == structure + 1


# -- outrefs ---------------------------------------------------------------------


def test_outref_ensure_and_lookup():
    table = make_outrefs()
    entry = table.ensure(ObjectId("R", 0))
    assert entry.is_clean
    assert ObjectId("R", 0) in table
    assert entry.back_threshold == 12


def test_outref_rejects_local_target():
    table = make_outrefs()
    with pytest.raises(GcInvariantError):
        table.ensure(ObjectId("P", 0))


def test_outref_cleanliness_sources():
    table = make_outrefs()
    entry = table.ensure(ObjectId("R", 0), clean=False)
    assert entry.is_suspected
    entry.barrier_clean = True
    assert entry.is_clean
    entry.barrier_clean = False
    entry.pin()
    assert entry.is_clean
    entry.unpin()
    assert entry.is_suspected


def test_unbalanced_unpin_raises():
    table = make_outrefs()
    entry = table.ensure(ObjectId("R", 0))
    with pytest.raises(GcInvariantError):
        entry.unpin()


def test_visited_marks_are_per_trace():
    table = make_outrefs()
    target = ObjectId("R", 0)
    entry = table.ensure(target, clean=False)
    t1, t2 = TraceId("P", 0), TraceId("Q", 0)
    table.visit(target, t1, increment=4)
    assert t1 in entry.visited and t2 not in entry.visited
    assert table.has_visited(target, t1) and not table.has_visited(target, t2)
    assert entry.back_threshold == 16
    table.unvisit(target, t2)
    table.unvisit(target, t1)
    assert not entry.visited and table._visited == {}  # marks are sparse


def test_suspected_entries_view():
    table = make_outrefs()
    table.ensure(ObjectId("R", 0), clean=False)
    table.ensure(ObjectId("R", 1), clean=True)
    assert [e.target for e in table.suspected_entries()] == [ObjectId("R", 0)]
    assert [e.target for e in table.entries() if e.is_clean] == [ObjectId("R", 1)]


# -- the local trace's passes over the outref table -----------------------------


def test_install_trace_states_moves_epochs_only_on_change():
    table = make_outrefs()
    near, far = ObjectId("R", 0), ObjectId("R", 1)
    table.ensure(near)
    table.ensure(far).barrier_clean = True
    inset = frozenset({ObjectId("P", 7)})
    states, insets = {near: (True, 2), far: (False, 6)}, {far: inset}
    changes = table.diff_verdicts(states, insets)
    assert changes == {near: (True, 2, frozenset()), far: (False, 6, inset)}
    table.install_trace_states(changes, states)
    assert (table.get(near).traced_clean, table.get(near).distance) == (True, 2)
    assert (table.get(far).traced_clean, table.get(far).distance) == (False, 6)
    assert table.get(far).inset == inset and not table.get(far).barrier_clean
    epoch = table.mutation_epoch
    assert table.diff_verdicts(states, insets) == {}  # nothing moves again
    # A reference the trace reached before its entry existed is created.
    new = ObjectId("R", 2)
    table.install_trace_states(table.diff_verdicts({new: (True, 1)}, {}), {new: (True, 1)})
    assert table.get(new).traced_clean and table.mutation_epoch > epoch


def test_scans_are_in_target_order():
    table = make_outrefs()
    for site, serial, clean in (("R", 1, False), ("Q", 5, True), ("R", 0, False), ("Q", 2, False)):
        table.ensure(ObjectId(site, serial), clean=clean, distance=serial + 1)
    table.get(ObjectId("Q", 2)).pin()
    order = table.targets()
    assert order == sorted(order) and len(order) == 4
    assert [t for t in order if table.is_pinned(t)] == [ObjectId("Q", 2)]
    by_site = table.distances_by_site()
    assert list(by_site) == ["Q", "R"]
    assert by_site["Q"] == {ObjectId("Q", 2): 3, ObjectId("Q", 5): 6}
    assert list(by_site["R"]) == [ObjectId("R", 0), ObjectId("R", 1)]
    suspected = table.suspected_entries()
    assert [e.target for e in suspected] == [ObjectId("R", 0), ObjectId("R", 1)]


def test_scan_committed_reads_the_changed_set_only():
    table = make_outrefs()
    for serial in (3, 1, 2):
        table.ensure(ObjectId("R", serial), clean=False, distance=serial)
    table.ensure(ObjectId("Q", 9), distance=4)
    assert table.scan_committed() == {
        "Q": [(ObjectId("Q", 9), 4)],
        "R": [(ObjectId("R", 1), 1), (ObjectId("R", 2), 2), (ObjectId("R", 3), 3)],
    }
    suspected = table.suspected_entries()
    assert [e.target for e in suspected] == [ObjectId("R", s) for s in (1, 2, 3)]
    # Nothing since: an empty diff, whatever the table holds.
    assert table.scan_committed() == {}
    states = {ObjectId("R", 2): (True, 5), ObjectId("R", 3): (False, 3)}
    table.install_trace_states(table.diff_verdicts(states, {}), states)
    table.remove(ObjectId("Q", 9))
    table.get(ObjectId("R", 1)).pin()  # no distance moved: not a change
    assert table.scan_committed() == {
        "Q": [(ObjectId("Q", 9), None)], "R": [(ObjectId("R", 2), 5)]
    }
    assert [e.target for e in table.suspected_entries()] == [ObjectId("R", 3)]
