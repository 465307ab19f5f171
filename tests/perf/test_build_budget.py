"""A host-independent gate on the cost of building a heap.

Every generator, scenario and test builds its graph through
``GraphBuilder.obj`` and ``GraphBuilder.link``, and the ledger's
``big_heap`` spends most of its set-up there (96k objects, 144k edges).
``sys.setprofile`` reports a ``call`` event per Python-level function entry
and a ``c_call`` event per builtin called from Python code, so the calls one
builder operation makes are exact on any host.

- An object is 3 Python-level calls (``GraphBuilder.obj``,
  ``Simulation.site``, ``Heap.alloc_id``) and 6 builtin calls: building the
  ``ObjectId`` from its field tuple, the index (``len``) and the four row
  appends.  It was 7 and 7: ``Heap.alloc``, the named tuple's ``__new__``,
  ``_intern``, ``bump_epoch`` and a throw-away ``HeapObject`` stood where
  ``alloc_id`` stands.
- A same-site edge is 3 and 4 (``GraphBuilder.link``, ``Simulation.site``,
  ``Heap.add_ref``; a probe per id, the row append and the dirty mark).  It
  was 9 and 7: two ``resolve`` calls, ``_row``, ``_edge_added``,
  ``_intern`` and ``bump_epoch`` came on top.
- A cross-site edge that creates both an outref and an inref is 9 and
  13.5: the heap's remote-slot path, and each table taking a slot for its
  new entry (``_take_slot``; the columns grow by half when full, which is
  the half call), filing it once and handing out a handle.  It was 11 and
  14 with one entry object per ioref (the inref's wrapping its source
  map), and 22 and 19 when the inref entry was created empty and then told
  of its source through four notifying calls.

The site lookup stays a call: after the sharded engine forks,
``Simulation.site`` hands out a proxy that refuses heap access, where the
site dict still holds the coordinator's stale copies.

Wall clocks stay in the ledger (``python -m benchmarks.ledger``, EXPERIMENTS
E43).
"""

from __future__ import annotations

import gc
import sys
from collections import Counter

from repro import Simulation, SimulationConfig
from repro.workloads import GraphBuilder

OPS = 500

MAX_CALLS_PER_OBJECT = (3, 6)
MAX_CALLS_PER_LOCAL_LINK = (3, 4)
MAX_CALLS_PER_REMOTE_LINK = (10, 14)


def _builder() -> GraphBuilder:
    sim = Simulation.create(SimulationConfig(seed=1))
    sim.add_sites(["P", "Q"], auto_gc=False)
    return GraphBuilder(sim)


def _calls_per_op(run, ops: int):
    """``(Python-level, builtin)`` calls per operation that ``run()`` makes,
    less its own entry and the ``sys.setprofile`` call that ends counting.
    The cyclic collector is off meanwhile: a ``gc.callbacks`` hook another
    library installed would otherwise count as the builder's calls."""
    counts: Counter = Counter()

    def profiler(frame, event, arg):
        counts[event] += 1

    previous = sys.getprofile()
    enabled = gc.isenabled()
    gc.disable()
    sys.setprofile(profiler)
    try:
        run()
    finally:
        sys.setprofile(previous)
        if enabled:
            gc.enable()
    return (counts["call"] - 1) / ops, (counts["c_call"] - 1) / ops


def _within(measured, budget, what):
    py_calls, c_calls = measured
    assert py_calls <= budget[0], (
        f"{py_calls} Python-level calls per {what} (budget {budget[0]})"
    )
    assert c_calls <= budget[1], f"{c_calls} builtin calls per {what} (budget {budget[1]})"


def test_calls_per_object_stay_within_budget():
    builder = _builder()
    builder.obj("P", root=True)
    sites = ["P"] * OPS

    def run():
        for site in sites:
            builder.obj(site)

    _within(_calls_per_op(run, OPS), MAX_CALLS_PER_OBJECT, "object")
    assert len(builder.sim.site("P").heap) == OPS + 1


def test_calls_per_same_site_link_stay_within_budget():
    builder = _builder()
    chain = [builder.obj("P", root=True)] + [builder.obj("P") for _ in range(OPS)]
    pairs = list(zip(chain, chain[1:]))

    def run():
        for src, dst in pairs:
            builder.link(src, dst)

    _within(_calls_per_op(run, OPS), MAX_CALLS_PER_LOCAL_LINK, "same-site link")
    assert builder.sim.site("P").heap.get(chain[0]).refs == [chain[1]]


def test_calls_per_cross_site_link_stay_within_budget():
    builder = _builder()
    holder = builder.obj("P", root=True)
    builder.link(holder, builder.obj("Q"))  # the row already holds a remote slot
    targets = [builder.obj("Q") for _ in range(OPS)]

    def run():
        for target in targets:
            builder.link(holder, target)

    _within(_calls_per_op(run, OPS), MAX_CALLS_PER_REMOTE_LINK, "cross-site link")
    sim = builder.sim
    assert len(sim.site("P").outrefs) == len(sim.site("Q").inrefs) == OPS + 1
    assert all(sim.site("Q").inrefs.require(t).sources == {"P": 1} for t in targets)
