"""Property tests for the simulation kernel itself.

The correctness of everything above rests on two kernel guarantees: the
scheduler fires events in (time, insertion) order, and the network delivers
per-pair FIFO when configured to (the paper's R1).  Hypothesis hammers both.
"""

from __future__ import annotations

from dataclasses import dataclass

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.config import NetworkConfig
from repro.metrics import MetricsRecorder
from repro.net.latency import ExponentialLatency
from repro.net.message import Payload
from repro.net.network import Network
from repro.sim.rng import RngRegistry
from repro.sim.scheduler import Scheduler

from ..conftest import examples


@given(
    st.lists(
        st.tuples(st.floats(min_value=0.0, max_value=100.0), st.integers()),
        min_size=1,
        max_size=60,
    )
)
@settings(max_examples=examples(150), deadline=None)
def test_scheduler_total_order(items):
    sched = Scheduler()
    fired = []
    for order, (delay, tag) in enumerate(items):
        sched.schedule(delay, lambda d=delay, o=order, t=tag: fired.append((d, o, t)))
    sched.drain()
    assert len(fired) == len(items)
    # Fired order must be sorted by (time, insertion order).
    keys = [(delay, order) for delay, order, _ in fired]
    assert keys == sorted(keys)


@given(
    st.lists(
        st.tuples(st.floats(min_value=0.0, max_value=50.0), st.sampled_from("ABC")),
        min_size=1,
        max_size=80,
    ),
    st.integers(0, 100),
)
@settings(max_examples=examples(100), deadline=None)
def test_network_fifo_per_pair_under_any_send_pattern(sends, seed):
    """Messages A->dst interleaved with arbitrary delays and heavy-tailed
    latencies still arrive per-destination in send order."""

    @dataclass(frozen=True)
    class Tagged(Payload):
        n: int = 0

    sched = Scheduler()
    metrics = MetricsRecorder()
    net = Network(
        sched,
        RngRegistry(seed),
        metrics,
        config=NetworkConfig(),
        latency_model=ExponentialLatency(base=0.1, mean=10.0),
    )
    received = {dst: [] for dst in "ABC"}
    for dst in "ABC":
        net.register(dst, (lambda d: lambda msg: received[d].append(msg.payload.n))(dst))

    counter = [0]

    def send_later(delay, dst):
        def fire():
            net.send("A", dst, Tagged(counter[0]))
            counter[0] += 1

        sched.schedule(delay, fire)

    for delay, dst in sends:
        send_later(delay, dst)
    sched.drain()
    merged = sorted(
        (n for inbox in received.values() for n in inbox)
    )
    assert merged == list(range(counter[0]))  # nothing lost or duplicated
    for inbox in received.values():
        assert inbox == sorted(inbox)  # per-pair FIFO


@given(st.integers(0, 1000))
@settings(max_examples=examples(30), deadline=None)
def test_network_without_fifo_never_loses_messages(seed):
    @dataclass(frozen=True)
    class Tick(Payload):
        n: int = 0

    sched = Scheduler()
    net = Network(
        sched,
        RngRegistry(seed),
        MetricsRecorder(),
        config=NetworkConfig(fifo_per_pair=False),
        latency_model=ExponentialLatency(base=0.1, mean=5.0),
    )
    inbox = []
    net.register("B", lambda msg: inbox.append(msg.payload.n))
    net.register("A", lambda msg: None)
    for n in range(40):
        net.send("A", "B", Tick(n))
    sched.drain()
    assert sorted(inbox) == list(range(40))
