"""Unit tests for the metrics recorder and snapshots."""

from repro.metrics import MetricsRecorder, names


def test_incr_and_count():
    metrics = MetricsRecorder()
    metrics.incr("a")
    metrics.incr("a", 4)
    assert metrics.count("a") == 5
    assert metrics.count("missing") == 0


def test_prefix_queries():
    metrics = MetricsRecorder()
    metrics.incr("gc.x", 2)
    metrics.incr("gc.y", 3)
    metrics.incr("net.z", 7)
    assert metrics.counts_with_prefix("gc.") == {"gc.x": 2, "gc.y": 3}
    assert metrics.total_with_prefix("gc.") == 5


def test_message_count_reads_the_per_kind_send_counter():
    metrics = MetricsRecorder()
    metrics.incr(names.msg_sent("Ping"), 2)
    metrics.incr(names.msg_sent("Pong"))
    metrics.incr(names.MSG_TOTAL, 3)
    assert metrics.message_count("Ping") == 2
    assert metrics.message_count("Pong") == 1
    assert metrics.message_count("Never") == 0
    assert metrics.count(names.MSG_TOTAL) == 3


def test_observations_and_stats():
    metrics = MetricsRecorder()
    for value in (1.0, 2.0, 6.0):
        metrics.observe("series", value)
    assert metrics.observations("series") == [1.0, 2.0, 6.0]
    assert metrics.observation_mean("series") == 3.0
    assert metrics.observation_max("series") == 6.0
    assert metrics.observation_mean("empty") == 0.0
    assert metrics.observation_max("empty") == 0.0


def test_snapshot_diff_only_nonzero():
    metrics = MetricsRecorder()
    metrics.incr("a", 1)
    before = metrics.snapshot()
    metrics.incr("a", 2)
    metrics.incr("b", 5)
    metrics.incr("untouched", 0)
    delta = metrics.snapshot().diff(before)
    assert delta == {"a": 2, "b": 5}


def test_snapshot_is_immutable_view():
    metrics = MetricsRecorder()
    metrics.incr("a")
    snap = metrics.snapshot()
    metrics.incr("a")
    assert snap.get("a") == 1
    assert metrics.count("a") == 2


def test_reset_clears_everything():
    metrics = MetricsRecorder()
    metrics.incr("a")
    metrics.observe("s", 1.0)
    metrics.reset()
    assert metrics.count("a") == 0
    assert metrics.observations("s") == []
