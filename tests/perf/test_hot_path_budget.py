"""A host-independent gate on the per-message floor.

The ledger's ``ping_storm`` does nothing but send, deliver and dispatch, so
the number of function calls the interpreter makes per fired event *is* the
hot path's length -- and, unlike a wall clock, it is exact on every host.
``sys.setprofile`` reports a ``call`` event per Python-level function entry
and a ``c_call`` event per builtin called from Python code.

A clean hop is 14 Python-level calls: ``Network._deliver`` and its one
accounting call, ``Site.receive``, the handler, the payload it builds,
``Site.send``, ``Network.send`` and its accounting call, the envelope,
``size_units``, the latency sampler, ``schedule_at``, ``_push`` and the
event record.  Before the accounting was batched and the envelope, the clock
read and the event record were made cheap, it was 28.92.  It also makes 15
builtin calls: ten ``dict.get`` (the counters and the dispatch table),
``heappush`` and ``heappop``, ``next`` and ``tuple.__new__`` for the
envelope, and the latency draw's ``Random.random``.  There were 16 while the
network kept a second copy of every in-flight message (a store per send and
a ``dict.pop`` per delivery); the scheduler queue is now its one record.
Wall clocks stay in the ledger (``python -m benchmarks.ledger``, EXPERIMENTS
E27).
"""

from __future__ import annotations

import gc
import sys

from benchmarks.ledger.scenarios import PingStorm, advance

MAX_PY_CALLS_PER_EVENT = 16.0
#: 14.962 measured: the 15 builtins of a hop, averaged with the few events
#: that are not hops.  The parent's 15.962 fails it.
MAX_C_CALLS_PER_EVENT = 14.97


def test_calls_per_ping_hop_stay_within_budget():
    scenario = PingStorm(seed=3, smoke=True)
    advance(scenario, until=scenario.warm_until)
    warm_events = scenario.events
    counts = {"call": 0, "c_call": 0}

    def profiler(frame, event, arg):
        if event in counts:
            counts[event] += 1

    # The cyclic collector is off meanwhile: a ``gc.callbacks`` hook another
    # library installed (hypothesis times its collections) would otherwise
    # count as the hot path's calls, and the figure would depend on test order.
    previous = sys.getprofile()
    enabled = gc.isenabled()
    gc.disable()
    sys.setprofile(profiler)
    try:
        advance(scenario)
    finally:
        sys.setprofile(previous)
        if enabled:
            gc.enable()
    fired = scenario.events - warm_events
    assert fired > 10_000 and scenario.sim.scheduler.pending == 0
    py_calls = counts["call"] / fired
    c_calls = counts["c_call"] / fired
    assert py_calls <= MAX_PY_CALLS_PER_EVENT, (
        f"{py_calls:.2f} Python-level calls per ping hop "
        f"(budget {MAX_PY_CALLS_PER_EVENT})"
    )
    assert c_calls <= MAX_C_CALLS_PER_EVENT, (
        f"{c_calls:.2f} builtin calls per ping hop (budget {MAX_C_CALLS_PER_EVENT})"
    )
