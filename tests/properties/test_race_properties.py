"""Property-based exploration of the Figure 6 race (section 6.4).

Hypothesis drives the race topology through random seeds, latency models,
trace-start offsets, and FIFO/non-FIFO delivery.  The invariant is the
paper's safety theorem: no interleaving of {back-trace branches, mutator
traversal, path deletion, local traces} may collect the live object, and
the system must still converge to zero garbage afterwards.
"""

from __future__ import annotations

from hypothesis import given, settings
from hypothesis import strategies as st

from repro import GcConfig, NetworkConfig
from repro.analysis import Oracle
from repro.mutator import Mutator
from repro.net.latency import ConstantLatency, ExponentialLatency, UniformLatency

from tests.conftest import examples, make_sim
from tests.integration.test_barrier_safety import (
    build_race_topology,
    prepare_stale_suspicion,
)


LATENCIES = [
    lambda: ConstantLatency(2.0),
    lambda: UniformLatency(1.0, 5.0),
    lambda: ExponentialLatency(base=0.5, mean=3.0),
]


@st.composite
def race_setups(draw):
    seed = draw(st.integers(0, 10_000))
    latency_index = draw(st.integers(0, len(LATENCIES) - 1))
    fifo = draw(st.booleans())
    trace_delay = draw(st.floats(min_value=0.0, max_value=8.0))
    delete_early = draw(st.booleans())
    return seed, latency_index, fifo, trace_delay, delete_early


@given(race_setups())
@settings(max_examples=examples(40), deadline=None)
def test_race_interleavings_never_lose_live_objects(setup):
    seed, latency_index, fifo, trace_delay, delete_early = setup
    gc = GcConfig()
    # Rebuild the canonical race topology under the drawn transport.
    import tests.integration.test_barrier_safety as race_mod

    sim, b = race_mod.build_race_topology(gc, seed=seed)
    sim.network._latency = LATENCIES[latency_index]()
    sim.network._config = NetworkConfig(fifo_per_pair=fifo)
    prepare_stale_suspicion(sim, b)
    oracle = Oracle(sim)

    mutator = Mutator(sim, "m", b["rootR"])
    mutator.traverse(b["e"], check_held=True)
    if delete_early:
        # Deletion races ahead of everything else.
        sim.site("R").mutator_remove_ref(b["e"], b["f"])
    sim.run_for(trace_delay)
    sim.site("Q").engine.start_trace(b["g"])
    if not delete_early:
        mutator.traverse(b["f"])
        sim.run_for(2.0)
        sim.settle(quiet_time=20.0)
        if not mutator.in_transit and mutator.position == b["f"]:
            mutator.traverse(b["z"])
            mutator.set_variable("zref", b["z"])
            mutator._arrived(b["a"])
            mutator.traverse(b["b"])
            sim.settle(quiet_time=20.0)
            if mutator.position == b["b"]:
                mutator.traverse(b["y"])
                mutator.store_ref(b["z"], holder=b["y"])
            mutator.clear_variable("zref")
        sim.site("R").mutator_remove_ref(b["e"], b["f"])
    # Safety at every subsequent round; convergence to zero garbage.
    for _ in range(50):
        sim.run_gc_round()
        oracle.check_safety()
        if not oracle.garbage_set():
            break
    assert not oracle.garbage_set()
