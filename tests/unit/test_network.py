"""Unit tests for the simulated network."""

from dataclasses import dataclass

import pytest

from repro.config import NetworkConfig
from repro.errors import UnknownSiteError
from repro.metrics import MetricsRecorder
from repro.net.faults import FaultPlan
from repro.net.latency import ConstantLatency, ExponentialLatency, UniformLatency
from repro.net.message import Payload
from repro.net.network import Network
from repro.sim.rng import RngRegistry
from repro.sim.scheduler import Scheduler


@dataclass(frozen=True)
class Ping(Payload):
    n: int = 0


def make_net(config=None, latency=None, sites=("A", "B", "C"), fault_plan=None):
    sched = Scheduler()
    metrics = MetricsRecorder()
    net = Network(
        sched,
        RngRegistry(0),
        metrics,
        config=config or NetworkConfig(),
        latency_model=latency or ConstantLatency(1.0),
        fault_plan=fault_plan,
    )
    inboxes = {s: [] for s in sites}
    for s in sites:
        net.register(s, (lambda sid: (lambda msg: inboxes[sid].append(msg)))(s))
    return sched, net, inboxes, metrics


def test_basic_delivery():
    sched, net, inboxes, _ = make_net()
    net.send("A", "B", Ping(1))
    sched.drain()
    assert [m.payload.n for m in inboxes["B"]] == [1]


def test_unknown_destination_raises():
    _, net, _, _ = make_net()
    with pytest.raises(UnknownSiteError):
        net.send("A", "Z", Ping())


def test_fifo_per_pair_even_with_variable_latency():
    sched, net, inboxes, _ = make_net(
        latency=ExponentialLatency(base=0.1, mean=10.0)
    )
    for i in range(50):
        net.send("A", "B", Ping(i))
    sched.drain()
    assert [m.payload.n for m in inboxes["B"]] == list(range(50))


def test_non_fifo_allows_reordering():
    config = NetworkConfig(fifo_per_pair=False)
    sched, net, inboxes, _ = make_net(
        config=config, latency=ExponentialLatency(base=0.1, mean=10.0)
    )
    for i in range(50):
        net.send("A", "B", Ping(i))
    sched.drain()
    received = [m.payload.n for m in inboxes["B"]]
    assert sorted(received) == list(range(50))
    assert received != list(range(50))


def test_crashed_destination_loses_messages():
    sched, net, inboxes, metrics = make_net()
    net.crash("B")
    net.send("A", "B", Ping())
    sched.drain()
    assert inboxes["B"] == []
    assert metrics.count("messages.lost") == 1
    # Message is still counted as sent (the sender paid for it).
    assert metrics.count("messages.Ping") == 1


def test_crash_in_flight_loses_message():
    sched, net, inboxes, metrics = make_net()
    net.send("A", "B", Ping())
    net.crash("B")  # after send, before delivery
    sched.drain()
    assert inboxes["B"] == []
    assert metrics.count("messages.lost") == 1


def test_recover_restores_delivery():
    sched, net, inboxes, _ = make_net()
    net.crash("B")
    net.recover("B")
    net.send("A", "B", Ping(3))
    sched.drain()
    assert [m.payload.n for m in inboxes["B"]] == [3]


def test_partition_blocks_cross_group_traffic():
    sched, net, inboxes, _ = make_net()
    net.partition({"A"}, {"B", "C"})
    net.send("A", "B", Ping(1))
    net.send("B", "C", Ping(2))
    sched.drain()
    assert inboxes["B"] == []
    assert [m.payload.n for m in inboxes["C"]] == [2]


def test_heal_partition():
    sched, net, inboxes, _ = make_net()
    net.partition({"A"}, {"B"})
    net.heal_partition()
    net.send("A", "B", Ping())
    sched.drain()
    assert len(inboxes["B"]) == 1


def test_implicit_partition_group():
    sched, net, inboxes, _ = make_net()
    # C is not named: it forms its own implicit group.
    net.partition({"A", "B"})
    net.send("A", "C", Ping())
    net.send("A", "B", Ping())
    sched.drain()
    assert inboxes["C"] == []
    assert len(inboxes["B"]) == 1


def test_loss_plan_drops_some():
    sched, net, inboxes, metrics = make_net(fault_plan=FaultPlan.loss(0.5))
    for i in range(200):
        net.send("A", "B", Ping(i))
    sched.drain()
    delivered = len(inboxes["B"])
    assert 0 < delivered < 200
    assert metrics.count("messages.lost") == 200 - delivered


def test_in_flight_tracking():
    # The queued deliver: event is the one record of a message in flight,
    # found by label and argument: a wrapped callback still counts, a
    # thunk under a look-alike label does not.
    sched, net, _, _ = make_net()
    net.send("A", "B", Ping(1))
    sched.schedule(0.5, lambda message: None, label="deliver:Ping", arg="wrapped")
    sched.schedule(0.5, lambda: None, label="deliver:Ping")
    [message, wrapped] = sorted(sched.queued_deliveries(), key=str)
    assert (message.src, message.dst, message.payload) == ("A", "B", Ping(1))
    assert wrapped == "wrapped"
    sched.drain()
    assert sched.queued_deliveries() == []


def test_message_metrics_by_kind():
    sched, net, _, metrics = make_net()
    net.send("A", "B", Ping())
    net.send("B", "A", Ping())
    sched.drain()
    assert metrics.message_count("Ping") == 2
    assert metrics.count("messages.total") == 2
    assert metrics.count("messages.delivered") == 2


def test_uniform_latency_within_bounds():
    rng = RngRegistry(0).stream("x")
    model = UniformLatency(2.0, 5.0)
    for _ in range(100):
        assert 2.0 <= model.sample(rng, "A", "B") <= 5.0


# -- min_cross_latency (per-shard lookahead floors) --------------------------


def test_min_cross_latency_uses_model_floor():
    _, net, _, _ = make_net(latency=UniformLatency(2.5, 9.0))
    assert net.min_cross_latency({"A"}) == 2.5
    assert net.min_cross_latency({"A", "B"}) == 2.5


def test_min_cross_latency_heterogeneous_takes_outbound_minimum():
    from repro.net.latency import ZonedLatency

    # A and B share a zone; C is remote.  A shard containing both zone-0
    # sites only has expensive outbound links, so its floor is the cross
    # band; a split shard still has a cheap intra-zone exit.
    model = ZonedLatency(
        {"A": 0, "B": 0, "C": 1}, intra=(1.0, 3.0), cross=(10.0, 30.0)
    )
    _, net, _, _ = make_net(latency=model)
    assert net.min_cross_latency({"A", "B"}) == 10.0
    assert net.min_cross_latency({"A"}) == 1.0


def test_min_cross_latency_unknown_model_or_no_outside_is_none():
    class Opaque(ExponentialLatency):
        def min_delay(self, src, dst):
            return None

    _, net, _, _ = make_net(latency=Opaque(base=1.0))
    assert net.min_cross_latency({"A"}) is None
    _, net, _, _ = make_net(latency=UniformLatency(2.0, 4.0))
    assert net.min_cross_latency({"A", "B", "C"}) is None


# -- accounting: first-touch order is part of byte identity -----------------------


@dataclass(frozen=True)
class Pong(Payload):
    pass


@dataclass(frozen=True)
class Bulk(Payload):
    def size_units(self):
        return 3


def test_counter_first_touch_order_is_pinned():
    """Counters are created by their first increment, and snapshots (and the
    ledger's ``counter_order_digest``) keep that order: the per-send and
    per-delivery accounting may be batched, never reordered.  The literal
    was recorded before the accounting became one call per send."""
    assert type(MetricsRecorder()._counters) is dict
    sched, net, _, metrics = make_net(
        sites=("A", "B"),
        fault_plan=FaultPlan.duplication(1.0, copies=1, lag=0.5, start=5.0, end=6.0),
    )
    net.send("A", "B", Ping(1))
    net.send("B", "A", Pong())
    sched.run_until(5.0)
    net.send("A", "B", Bulk())  # inside the fault window: one duplicate copy
    sched.run_until(10.0)
    net.crash("B")
    net.send("A", "B", Ping(2))  # dropped at send: destination crashed
    sched.drain()
    assert list(metrics.snapshot().counters.items()) == [
        ("messages.Ping", 2),
        ("messages.total", 4),
        ("messages.units", 6),
        ("units.Ping", 2),
        ("involve.Ping.A", 2),
        ("involve.Ping.B", 2),
        ("messages.Pong", 1),
        ("units.Pong", 1),
        ("involve.Pong.B", 1),
        ("involve.Pong.A", 1),
        ("messages.delivered", 3),
        ("messages.delivered.Ping", 1),
        ("messages.delivered.Pong", 1),
        ("messages.Bulk", 1),
        ("units.Bulk", 3),
        ("involve.Bulk.A", 1),
        ("involve.Bulk.B", 1),
        ("messages.duplicated.Bulk", 1),
        ("messages.delivered.Bulk", 1),
        ("messages.dup_delivered.Bulk", 1),
        ("messages.lost", 1),
        ("messages.dropped.Ping", 1),
        ("messages.dropped.crash", 1),
    ]
