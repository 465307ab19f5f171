"""Property test: the column-stored ioref tables against plain records.

Both tables keep each entry as a slot of their columns, with records beside
them (the per-source index, the trace order ``scan_for_trace`` keeps, the
suspected, pinned and barrier-flagged targets, sparse visited marks) and a
free list that hands a removed entry's slot to the next new one.  A twin
with none of that -- a dict of plain per-target records, recomputing
everything on every read -- replays the same random script of table
operations: ``ensure``, ``add_source``, ``set_source``, update and delta
apply, ``remove_source`` and ``remove`` (so slots are freed and reused),
garbage and barrier flags, barrier expiry, pin and unpin, outset and
verdict installs, visits and their ends.  After every step the two must
agree on each entry's fields, distance = min(sources), the ``scan_for_trace``
order, the by-source index, the suspected, pinned and barrier-flagged
records and the visited marks, and the tables' own audits must hold.
"""

from __future__ import annotations

from hypothesis import Phase, given, settings
from hypothesis import strategies as st

from repro.errors import GcInvariantError
from repro.gc.inrefs import InrefTable
from repro.gc.outrefs import OutrefTable
from repro.gc.update import UpdateDeltaPayload, UpdatePayload, apply_update, apply_update_delta
from repro.ids import ObjectId, TraceId

from ..conftest import examples

THRESHOLD, BACK, INCREMENT = 3, 7, 4
SOURCES = ("P", "Q")
TARGETS = [ObjectId("R", n) for n in range(4)]
TRACES = [TraceId("P", n) for n in range(3)]


class Model:
    """The twin: one plain record per target, nothing kept beside them."""

    def __init__(self):
        self.inrefs = {}
        self.outrefs = {}

    # -- inrefs ------------------------------------------------------------

    def inref(self, target, source, distance):
        self.inrefs[target] = dict(
            sources={source: distance}, garbage=False, barrier=False,
            visited=set(), back=BACK, outset=frozenset(),
        )

    def set_distance(self, target, source, distance):
        record = self.inrefs.get(target)
        if record is not None and source in record["sources"]:
            record["sources"][source] = distance

    def drop_source(self, target, source):
        record = self.inrefs.get(target)
        if record is not None:
            record["sources"].pop(source, None)
            if not record["sources"]:
                del self.inrefs[target]

    def clean(self, record):
        distance = min(record["sources"].values())
        return not record["garbage"] and (record["barrier"] or distance <= THRESHOLD)

    # -- outrefs -----------------------------------------------------------

    def outref(self, target, clean, distance):
        self.outrefs[target] = dict(
            distance=distance, traced_clean=clean, barrier=False, pins=0,
            inset=frozenset(), visited=set(), back=BACK,
        )

    def out_suspected(self, record):
        return not (record["traced_clean"] or record["barrier"] or record["pins"])


def apply(inrefs, outrefs, model, op):
    kind, a, b, c = op
    target, source, distance = TARGETS[a % 4], SOURCES[b % 2], c % 6
    record = model.inrefs.get(target)
    out = model.outrefs.get(target)
    trace = TRACES[c % 3]
    if kind == "ensure":
        inrefs.ensure(target, source, distance)
        if record is None:
            model.inref(target, source, distance)
        elif distance < record["sources"].get(source, distance + 1):
            record["sources"][source] = distance
    elif kind == "add_source" and record is not None:
        inrefs.add_source(target, source, distance)
        if distance < record["sources"].get(source, distance + 1):
            record["sources"][source] = distance
    elif kind == "set_source" and record is not None:
        inrefs.set_source(target, source, distance)
        record["sources"][source] = distance
    elif kind == "delta":
        gone = TARGETS[c % 4]
        payload = UpdateDeltaPayload(distances=((target, distance),), removals=(gone,))
        apply_update_delta(inrefs, source, payload)
        model.set_distance(target, source, distance)
        model.drop_source(gone, source)
    elif kind == "full":
        apply_update(inrefs, source, UpdatePayload(distances=((target, distance),)))
        model.set_distance(target, source, distance)
        for other in [t for t in model.inrefs if t != target]:
            model.drop_source(other, source)
    elif kind == "remove_source":
        inrefs.remove_source(target, source)
        model.drop_source(target, source)
    elif kind == "remove":
        inrefs.remove(target)
        model.inrefs.pop(target, None)
    elif kind == "garbage" and record is not None:
        inrefs.set_garbage(target, bool(c % 2))
        record["garbage"] = bool(c % 2)
    elif kind == "barrier" and record is not None:
        inrefs.set_barrier_clean(target, bool(c % 2))
        record["barrier"] = bool(c % 2)
    elif kind == "reset_barrier":
        inrefs.reset_barrier_cleans()
        for each in model.inrefs.values():
            each["barrier"] = False
    elif kind == "outsets":
        # One entry gets an outset, or none does; every other one is reset.
        named = {target: frozenset(TARGETS[: 1 + b % 3])} if c % 2 else {}
        inrefs.install_outsets(inrefs.diff_outsets(named))
        for t, each in model.inrefs.items():
            each["outset"] = named.get(t, frozenset())
    elif kind == "visit" and record is not None:
        inrefs.visit(target, trace, INCREMENT)
        record["visited"].add(trace)
        record["back"] += INCREMENT
    elif kind == "unvisit":
        inrefs.unvisit(target, trace)
        if record is not None:
            record["visited"].discard(trace)
    elif kind == "o_ensure":
        outrefs.ensure(target, clean=bool(c % 2), distance=distance)
        if out is None:
            model.outref(target, bool(c % 2), distance)
    elif kind == "o_remove":
        outrefs.remove(target)
        model.outrefs.pop(target, None)
    elif kind == "o_pin" and out is not None:
        outrefs.pin(target)
        out["pins"] += 1
    elif kind == "o_unpin" and out is not None:
        if out["pins"]:
            outrefs.unpin(target)
            out["pins"] -= 1
        else:
            try:
                outrefs.unpin(target)
            except GcInvariantError:
                pass
            else:
                raise AssertionError("unbalanced unpin accepted")
    elif kind == "o_barrier" and out is not None:
        outrefs.set_barrier_clean(target, bool(c % 2))
        out["barrier"] = bool(c % 2)
    elif kind == "o_install":
        reached = TARGETS[a % 4 : a % 4 + 1 + b % 3]
        states = {t: (bool((c + i) % 2), (c + i) % 5) for i, t in enumerate(reached)}
        insets = {t: frozenset(TARGETS[: 1 + i]) for i, t in enumerate(reached) if not states[t][0]}
        outrefs.install_trace_states(outrefs.diff_verdicts(states, insets), states)
        for t, (clean, d) in states.items():
            if t not in model.outrefs:
                model.outref(t, clean, d)
            each = model.outrefs[t]
            each.update(distance=d, traced_clean=clean, inset=insets.get(t, frozenset()))
            each["barrier"] = False
    elif kind == "o_visit" and out is not None:
        outrefs.visit(target, trace, INCREMENT)
        out["visited"].add(trace)
        out["back"] += INCREMENT
    elif kind == "o_unvisit":
        outrefs.unvisit(target, trace)
        if out is not None:
            out["visited"].discard(trace)


def assert_agree(inrefs, outrefs, model):
    inrefs.check_changed()
    outrefs.check_changed({})
    # Inrefs: fields, distance = min(sources), marks.
    assert inrefs.targets() == sorted(model.inrefs)
    for entry in inrefs.entries():
        record = model.inrefs[entry.target]
        assert dict(entry.sources) == record["sources"]
        assert entry.distance == min(record["sources"].values())
        assert (entry.garbage, entry.barrier_clean) == (record["garbage"], record["barrier"])
        assert (entry.outset, entry.back_threshold) == (record["outset"], record["back"])
        assert entry.visited == record["visited"]
    # The trace order, off the kept filing.
    scan = inrefs.scan_for_trace()
    live = [(min(r["sources"].values()), t) for t, r in model.inrefs.items() if not r["garbage"]]
    clean = sorted(k for k in live if model.clean(model.inrefs[k[1]]))
    assert scan.clean_roots == [(t, d) for d, t in clean]
    assert scan.suspected_targets == [t for d, t in sorted(set(live) - set(clean))]
    # The per-source index and the records beside the columns.
    for source in SOURCES:
        want = sorted(t for t, r in model.inrefs.items() if source in r["sources"])
        assert inrefs.targets_from_source(source) == want
    assert [e.target for e in inrefs.entries() if e.is_suspected(THRESHOLD)] == sorted(
        t for t, r in model.inrefs.items() if not model.clean(r)
    )
    assert inrefs._barrier_flagged == {t for t, r in model.inrefs.items() if r["barrier"]}
    # Outrefs: fields, records, marks.
    order, pinned = outrefs.scan_for_trace()
    assert order == sorted(model.outrefs)
    assert pinned == {t for t, r in model.outrefs.items() if r["pins"]}
    for entry in outrefs.entries():
        record = model.outrefs[entry.target]
        assert (entry.distance, entry.traced_clean, entry.inset) == (
            record["distance"], record["traced_clean"], record["inset"],
        )
        assert (entry.pin_count, entry.barrier_clean) == (record["pins"], record["barrier"])
        assert (entry.visited, entry.back_threshold) == (record["visited"], record["back"])
    assert [e.target for e in outrefs.suspected_entries()] == sorted(
        t for t, r in model.outrefs.items() if model.out_suspected(r)
    )
    assert outrefs._barrier_flagged == {t for t, r in model.outrefs.items() if r["barrier"]}
    # Marks are kept only where some live trace put one.
    for table, records in ((inrefs, model.inrefs), (outrefs, model.outrefs)):
        marked = {table._targets[slot] for slot in table._visited}
        assert marked == {t for t, r in records.items() if r["visited"]}


KINDS = (
    ["ensure"] * 4
    + ["add_source", "set_source"] * 2
    + ["delta", "full", "remove_source", "remove", "remove_source", "remove"]
    + ["garbage", "barrier", "reset_barrier", "outsets", "outsets", "visit", "visit", "unvisit"]
    + ["o_ensure"] * 3
    + ["o_remove", "o_remove", "o_pin", "o_unpin"]
    + ["o_barrier", "o_barrier", "o_install", "o_install"]
    + ["o_visit", "o_visit", "o_unvisit"]
)

SCRIPTS = st.lists(
    st.tuples(st.sampled_from(KINDS), st.integers(0, 11), st.integers(0, 11), st.integers(0, 11)),
    min_size=20,
    max_size=60,
)


# No shrink phase: shrinking a 20-60 step script against these checks takes
# minutes, and the failing step's assertion already names what drifted.
@given(SCRIPTS)
@settings(
    max_examples=examples(150),
    deadline=None,
    phases=[phase for phase in Phase if phase is not Phase.shrink],
)
def test_column_tables_agree_with_plain_records(script):
    inrefs = InrefTable("R", suspicion_threshold=THRESHOLD, initial_back_threshold=BACK)
    outrefs = OutrefTable("P", initial_back_threshold=BACK)
    model = Model()
    for op in script:
        apply(inrefs, outrefs, model, op)
        assert_agree(inrefs, outrefs, model)
