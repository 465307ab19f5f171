"""Unit tests for the inref and outref tables."""

import pytest

from repro.errors import GcInvariantError
from repro.gc.inrefs import INFINITE_DISTANCE, InrefTable
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


def test_empty_inref_has_infinite_distance():
    table = make_inrefs()
    entry = table.ensure(ObjectId("R", 0), source="P")
    entry.remove_source("P")
    assert entry.distance == INFINITE_DISTANCE
    assert entry.empty


def test_remove_source_drops_empty_entry():
    table = make_inrefs()
    target = ObjectId("R", 0)
    table.ensure(target, source="P")
    table.remove_source(target, "P")
    assert target not in table


def test_clean_vs_suspected_by_threshold():
    table = make_inrefs(threshold=4)
    near = table.ensure(ObjectId("R", 0), source="P", distance=4)
    far = table.ensure(ObjectId("R", 1), source="P", distance=5)
    assert near.is_clean(4) and not near.is_suspected(4)
    assert far.is_suspected(4) and not far.is_clean(4)
    assert {e.target for e in table.suspected_entries()} == {far.target}


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
    assert entry.target not in set(table.root_targets())
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
    assert scan.distances == {ObjectId("R", n): d for n, d in enumerate([9, 2, 5, 1, 1, 7])}
    assert scan.clean_after_reset == {
        ObjectId("R", n): clean
        for n, clean in enumerate([False, True, False, True, False, False])
    }


# -- source-list mutators ---------------------------------------------------------
#
# Every way of changing ``entry.sources`` must refresh ``entry.distance``,
# advance the table's distance epoch, and keep the per-source index
# (``targets_from_source``) in step.


def _sourced_entry():
    table = make_inrefs()
    target = ObjectId("R", 0)
    entry = table.ensure(target, source="P", distance=5)
    return table, target, entry


def test_sources_update_notifies():
    table, target, entry = _sourced_entry()
    before = table.distance_epoch
    entry.sources.update({"Q": 2}, S=9)
    assert entry.distance == 2
    assert table.distance_epoch > before
    assert table.targets_from_source("Q") == [target]
    assert table.targets_from_source("S") == [target]


def test_sources_ior_notifies():
    table, target, entry = _sourced_entry()
    before = table.distance_epoch
    entry.sources |= {"Q": 1}
    assert entry.sources == {"P": 5, "Q": 1} and entry.sources.entry is entry
    assert entry.distance == 1
    assert table.distance_epoch > before
    assert table.targets_from_source("Q") == [target]


def test_sources_setdefault_notifies_only_when_it_adds():
    table, target, entry = _sourced_entry()
    before = table.distance_epoch
    assert entry.sources.setdefault("P", 1) == 5
    assert table.distance_epoch == before
    assert entry.sources.setdefault("Q", 3) == 3
    assert entry.distance == 3
    assert table.distance_epoch > before
    assert table.targets_from_source("Q") == [target]
    with pytest.raises(TypeError):
        entry.sources.setdefault("S")  # a source needs a distance


def test_sources_clear_notifies():
    table, target, entry = _sourced_entry()
    entry.add_source("Q", 2)
    before = table.distance_epoch
    entry.sources.clear()
    assert entry.empty and entry.distance == INFINITE_DISTANCE
    assert table.distance_epoch > before
    assert table.targets_from_source("P") == table.targets_from_source("Q") == []


def test_sources_popitem_notifies():
    table, target, entry = _sourced_entry()
    entry.add_source("Q", 2)
    before = table.distance_epoch
    assert entry.sources.popitem() == ("Q", 2)
    assert entry.distance == 5
    assert table.distance_epoch > before
    assert table.targets_from_source("Q") == []
    entry.sources.popitem()
    with pytest.raises(KeyError):
        entry.sources.popitem()


def test_sources_pop_and_del_notify():
    table, target, entry = _sourced_entry()
    entry.add_source("Q", 2)
    entry.add_source("S", 1)
    before = table.distance_epoch
    assert entry.sources.pop("S") == 1
    assert entry.sources.pop("S", None) is None
    del entry.sources["Q"]
    assert entry.distance == 5
    assert table.distance_epoch > before
    assert table.targets_from_source("Q") == table.targets_from_source("S") == []


def test_rewriting_a_source_with_its_own_distance_is_silent():
    table, target, entry = _sourced_entry()
    before = table.distance_epoch
    entry.sources["P"] = 5
    entry.sources.update(P=5)
    assert table.distance_epoch == before


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
    entry = table.ensure(ObjectId("R", 0), clean=False)
    t1, t2 = TraceId("P", 0), TraceId("Q", 0)
    entry.visited.add(t1)
    assert t1 in entry.visited and t2 not in entry.visited


def test_inset_storage_units():
    table = make_outrefs()
    e1 = table.ensure(ObjectId("R", 0), clean=False)
    e2 = table.ensure(ObjectId("R", 1), clean=False)
    e1.inset = frozenset({ObjectId("P", 1), ObjectId("P", 2)})
    e2.inset = frozenset({ObjectId("P", 1)})
    assert table.inset_storage_units() == 3


def test_suspected_entries_view():
    table = make_outrefs()
    table.ensure(ObjectId("R", 0), clean=False)
    table.ensure(ObjectId("R", 1), clean=True)
    assert [e.target for e in table.suspected_entries()] == [ObjectId("R", 0)]
    assert [e.target for e in table.clean_entries()] == [ObjectId("R", 1)]


# -- the local trace's passes over the outref table -----------------------------


def test_install_trace_states_moves_epochs_only_on_change():
    table = make_outrefs()
    near, far = ObjectId("R", 0), ObjectId("R", 1)
    table.ensure(near)
    table.ensure(far).barrier_clean = True
    inset = frozenset({ObjectId("P", 7)})
    table.install_trace_states({near: (True, 2), far: (False, 6)}, {far: inset})
    assert (table.get(near).traced_clean, table.get(near).distance) == (True, 2)
    assert (table.get(far).traced_clean, table.get(far).distance) == (False, 6)
    assert table.get(far).inset == inset and not table.get(far).barrier_clean
    epoch = table.mutation_epoch
    table.install_trace_states({near: (True, 2), far: (False, 6)}, {far: inset})
    assert table.mutation_epoch == epoch
    # A reference the trace reached before its entry existed is created.
    new = ObjectId("R", 2)
    table.install_trace_states({new: (True, 1)}, {})
    assert table.get(new).traced_clean and table.mutation_epoch > epoch


def test_scans_are_in_target_order():
    table = make_outrefs()
    for site, serial, clean in (("R", 1, False), ("Q", 5, True), ("R", 0, False), ("Q", 2, False)):
        table.ensure(ObjectId(site, serial), clean=clean, distance=serial + 1)
    table.get(ObjectId("Q", 2)).pin()
    order, pinned = table.scan_for_trace()
    assert order == sorted(order) and len(order) == 4
    assert pinned == {ObjectId("Q", 2)}
    by_site, suspected = table.scan_committed()
    assert list(by_site) == ["Q", "R"]
    assert by_site["Q"] == {ObjectId("Q", 2): 3, ObjectId("Q", 5): 6}
    assert list(by_site["R"]) == [ObjectId("R", 0), ObjectId("R", 1)]
    assert suspected == table.suspected_entries()
    assert [e.target for e in suspected] == [ObjectId("R", 0), ObjectId("R", 1)]
