"""Property test: the flat mirror and the clean-phase kernel under mutation.

The clean-phase kernel reads facts the heap keeps current in O(1) per
change -- the rows, the rows holding remote references, the dirty set.
Hypothesis drives one heap through random interleavings of every
operation that touches the mirror and traces it with the production kernel
*between* steps: after each step the mirror is audited with
``check_flat_mirror`` and the kernel must agree with the reference on all
five contract fields for adversarial root lists (its clean set being the
resident rows its bitmap marks).

The rows are the only record of an object, so slot order is theirs to keep:
a second property holds ``iter_refs()`` to a plain-list model of each
object's slots under interleaved local and remote adds and removes.
"""

from __future__ import annotations

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.distance import trace_clean_phase, trace_clean_phase_flat
from repro.ids import ObjectId
from repro.store.heap import Heap

from ..conftest import examples

(
    ALLOC,
    ALLOC_REFS,
    ADD_LOCAL,
    ADD_REMOTE,
    ADD_FUTURE,
    ADD_AGAIN,
    REMOVE,
    SWEEP,
    DELETE,
) = range(9)

ops = st.lists(
    st.tuples(
        st.sampled_from(
            # Allocation and linking weigh more than deletion, so graphs grow.
            [ALLOC] * 3
            + [ALLOC_REFS] * 2
            + [ADD_LOCAL] * 4
            + [ADD_REMOTE] * 2
            + [ADD_FUTURE, ADD_AGAIN, REMOVE, REMOVE, SWEEP, DELETE]
        ),
        st.integers(0, 1 << 16),
        st.integers(0, 1 << 16),
        st.integers(0, 1 << 16),
    ),
    min_size=1,
    max_size=60,
)
root_picks = st.lists(
    st.tuples(st.integers(0, 1 << 16), st.integers(0, 5)), max_size=8
)


def _apply(heap, known, op, a, b, c):
    """One mutation; ``known`` lists every local id ever allocated (dead
    ones included, so edges dangle and sweeps repeat)."""
    remote = ObjectId("QR"[b % 2], c % 5)
    if op == ALLOC or not known:
        known.append(heap.alloc(persistent_root=a % 4 == 0).oid)
        return
    holder = known[a % len(known)]
    target = known[b % len(known)]
    if op == ALLOC_REFS:
        # Local (maybe dead), remote, and a duplicate, in one constructor call.
        known.append(heap.alloc(refs=[target, remote, target][: 1 + c % 3]).oid)
    elif op == SWEEP:
        heap.sweep_ids([holder, target, known[c % len(known)]])
    elif op == DELETE:
        heap.delete(holder)
    elif heap.contains(holder):
        obj = heap.get(holder)
        if op == ADD_LOCAL:
            obj.add_ref(target)
        elif op == ADD_REMOTE:
            obj.add_ref(remote)
        elif op == ADD_FUTURE:
            # An id the heap has not handed out yet: interned dead now,
            # brought alive in place by a later alloc.
            obj.add_ref(ObjectId("P", len(known) + b % 3))
        elif obj.refs:
            refs = obj.refs
            ref = refs[b % len(refs)]
            if op == ADD_AGAIN:
                obj.add_ref(ref)
            else:
                obj.remove_ref(ref)


def _contract(result, clean):
    return (
        clean,
        result.outref_distances,
        result.clean_variable_outrefs,
        result.objects_scanned,
        result.edges_examined,
    )


@given(ops, root_picks, st.lists(st.integers(0, 4), max_size=3))
@settings(max_examples=examples(300), deadline=None)
def test_mirror_facts_hold_and_kernels_agree_under_interleaved_mutation(
    script, picks, variable
):
    heap = Heap("P")
    known = []
    variable_outrefs = [ObjectId("Q", k) for k in variable]
    for op, a, b, c in script:
        _apply(heap, known, op, a, b, c)
        # Several distance groups over live and dead ids, a duplicate root
        # at a second distance, a remote root and a never-allocated local
        # one; the root list grows with ``known``, so positions shift.
        roots = [(known[k % len(known)], distance) for k, distance in picks]
        roots.extend((oid, distance + 2) for oid, distance in roots[:2])
        roots.append((ObjectId("Q", 1), 0))
        roots.append((ObjectId("P", 10_000), 1))
        flat = trace_clean_phase_flat(heap, roots, variable_outrefs)
        legacy = trace_clean_phase(heap, roots, variable_outrefs)
        clean = {oid for oid in heap.object_ids() if flat.marks[heap.get(oid).index]}
        assert _contract(flat, clean) == _contract(legacy, legacy.clean_objects)
        heap.check_flat_mirror()


slot_ops = st.lists(
    st.tuples(
        st.sampled_from(["add", "add", "remove", "sweep"]),
        st.integers(0, 1 << 16),
        st.integers(0, 1 << 16),
    ),
    min_size=1,
    max_size=80,
)


@given(slot_ops)
@settings(max_examples=examples(300), deadline=None)
def test_iter_refs_is_a_plain_list_model_of_the_slots(script):
    """Slot order under interleaved local and remote adds and removes,
    duplicates and dangling local slots included."""
    heap = Heap("P")
    holders = [heap.alloc().oid for _ in range(3)]
    extras = [heap.alloc().oid for _ in range(2)]  # swept: their slots dangle
    targets = holders + extras + [ObjectId("Q", 0), ObjectId("Q", 1), ObjectId("R", 0)]
    model = {oid: [] for oid in holders}
    for op, a, b in script:
        holder = holders[a % len(holders)]
        slots = model[holder]
        if op == "sweep":
            heap.sweep_ids([extras[b % len(extras)]])
        elif op == "add" or not slots:
            target = targets[b % len(targets)]
            heap.get(holder).add_ref(target)
            slots.append(target)
        else:
            target = slots[b % len(slots)]
            heap.get(holder).remove_ref(target)
            slots.remove(target)
        for oid in holders:
            assert list(heap.get(oid).iter_refs()) == model[oid]
    heap.check_flat_mirror()
