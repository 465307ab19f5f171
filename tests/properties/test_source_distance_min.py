"""Property test: an inref's distance, kept incrementally, is a recompute.

An inref's distance is the minimum over its per-source estimates (section
3).  The entry keeps it current without a pass over the sources: a lower
estimate is the new minimum outright, and only raising or removing the
current minimum recomputes.  A local trace reads only the minimum, so the
table's distance epoch moves, and the target enters the changed set, exactly
when the minimum moves.  Hypothesis drives one entry through random add /
raise / lower / remove sequences, through every writer (the table's
methods, and the entry handle's, which call them), and compares each step
with a plain-dict model that recomputes the minimum every time; an entry
whose last source goes leaves the table.
"""

from __future__ import annotations

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.gc.inrefs import INFINITE_DISTANCE, InrefTable
from repro.ids import ObjectId

from ..conftest import examples

SOURCES = "QRSTU"
TARGET = ObjectId("P", 0)

ops = st.lists(
    st.tuples(
        st.sampled_from(["ensure", "add", "raise", "lower", "set", "poke", "remove", "del"]),
        st.integers(0, len(SOURCES) - 1),
        st.integers(0, 6),
    ),
    min_size=1,
    max_size=60,
)


def _apply(table, model, op, site, d):
    """One write, through the entry or the table, mirrored on ``model``."""
    entry = table.get(TARGET)
    held = model.get(site)
    if op == "ensure" or entry is None:
        table.ensure(TARGET, site, d)
        if held is None or d < held:
            model[site] = d
    elif op == "add":
        entry.add_source(site, d)
        if held is None or d < held:
            model[site] = d
    elif op in ("raise", "lower", "set"):
        new = {"raise": (held or 0) + 1 + d, "lower": max(0, (held or 0) - 1 - d)}.get(op, d)
        entry.set_source_distance(site, new)
        if held is not None:
            model[site] = new
    elif op == "poke":
        table.set_source(TARGET, site, d)
        model[site] = d
    elif op == "remove":
        entry.remove_source(site)
        model.pop(site, None)
    elif held is not None:
        assert table.remove_source(TARGET, site)
        del model[site]


@given(ops)
@settings(max_examples=examples(300), deadline=None)
def test_the_kept_minimum_matches_a_recompute(script):
    table = InrefTable("P", suspicion_threshold=2, initial_back_threshold=4)
    model = {}
    for op, pick, d in script:
        site = SOURCES[pick]
        table.take_changed()  # empties the changed set
        epoch = table.distance_epoch
        before = min(model.values(), default=INFINITE_DISTANCE)
        _apply(table, model, op, site, d)
        after = min(model.values(), default=INFINITE_DISTANCE)
        entry = table.get(TARGET)
        assert (entry is None) == (not model)
        if entry is not None:
            assert dict(entry.sources) == model
            assert entry.distance == after
        assert table.distance_epoch - epoch == (after != before)
        # An entry that left the table is no longer named changed.
        assert (TARGET in table._changed) == (after != before and bool(model))
        for source in SOURCES:
            assert table.targets_from_source(source) == ([TARGET] if source in model else [])
    table.check_changed()
