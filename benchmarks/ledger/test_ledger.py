"""Tests of the ledger's own machinery.

Run with ``PYTHONPATH=src python -m pytest benchmarks/ledger`` (not part of
tier-1's ``testpaths``).
"""

import json
from pathlib import Path

import pytest

from benchmarks.ledger import compare, metrics, report, tracer, worker


class FakeClock:
    def __init__(self):
        self.now = 0

    def __call__(self):
        return self.now

    def spend(self, ns):
        self.now += ns


# -- span recorder ------------------------------------------------------------


def test_nested_spans_split_self_time_without_overlap():
    clock = FakeClock()
    recorder = tracer.SpanRecorder(clock)

    def leaf():
        clock.spend(7)

    leaf = recorder.wrap(leaf, "layer.leaf")

    def middle():
        clock.spend(3)
        leaf()
        leaf()
        clock.spend(2)

    middle = recorder.wrap(middle, "layer.middle")

    def root():
        clock.spend(1)
        middle()
        clock.spend(10)

    recorder.wrap(root, tracer.ROOT)()

    assert recorder.rows["layer.leaf"] == [2, 14, 14]
    assert recorder.rows["layer.middle"] == [1, 5, 19]
    assert recorder.rows[tracer.ROOT] == [1, 11, 30]
    # Self times are non-overlapping and sum to the root span.
    assert sum(row[1] for row in recorder.rows.values()) == recorder.rows[tracer.ROOT][2]


def test_exception_unwinds_the_span_stack():
    clock = FakeClock()
    recorder = tracer.SpanRecorder(clock)

    def boom():
        clock.spend(4)
        raise ValueError("boom")

    boom = recorder.wrap(boom, "layer.boom")

    def outer():
        clock.spend(1)
        try:
            boom()
        except ValueError:
            clock.spend(2)

    recorder.wrap(outer, "layer.outer")()
    assert recorder.rows["layer.boom"] == [1, 4, 4]
    assert recorder.rows["layer.outer"] == [1, 3, 7]
    assert recorder._stack == []


def test_reset_zeroes_rows_that_live_wrappers_still_hold():
    clock = FakeClock()
    recorder = tracer.SpanRecorder(clock)
    spend = recorder.wrap(lambda: clock.spend(5), "layer.op")
    spend()
    recorder.reset()
    spend()
    assert recorder.rows["layer.op"] == [1, 5, 5]


def test_coarse_spans_record_their_coarse_parent():
    clock = FakeClock()
    recorder = tracer.SpanRecorder(clock)
    inner = recorder.wrap(lambda: clock.spend(2), "layer.inner", coarse=True)
    fine = recorder.wrap(inner, "layer.fine")
    recorder.wrap(fine, "layer.outer", coarse=True)()
    (inner_span, outer_span) = recorder.raw
    assert inner_span[1] == "layer.inner" and outer_span[1] == "layer.outer"
    assert inner_span[4] == outer_span[0]  # parent id skips the fine span
    assert outer_span[4] == 0


def test_install_and_restore_leave_every_class_untouched():
    from repro.core import distance
    from repro.core.backtrace.engine import BackTraceEngine
    from repro.core.collector import BackTracingCollector
    from repro.gc import localtrace
    from repro.net.network import Network
    from repro.sim.parallel import ParallelSimulation
    from repro.sim.scheduler import Scheduler
    from repro.site.site import Site
    from repro.store.heap import Heap

    owners = (
        Scheduler, ParallelSimulation, Network, Site, Heap, BackTraceEngine,
        BackTracingCollector, localtrace.LocalCollector, localtrace, distance,
    )
    before = [dict(vars(owner)) for owner in owners]
    recorder = tracer.SpanRecorder()
    tracer.install(recorder)
    assert Site.receive is not before[3]["receive"]
    recorder.restore()
    assert [dict(vars(owner)) for owner in owners] == before


def test_restore_deletes_a_patch_on_an_inherited_attribute():
    class Base:
        def method(self):
            return "base"

    class Child(Base):
        pass

    recorder = tracer.SpanRecorder()
    recorder.patch(Child, "method", "layer.method")
    assert "method" in vars(Child) and Child().method() == "base"
    recorder.restore()
    assert "method" not in vars(Child)


@pytest.mark.parametrize(
    "label, span",
    [
        ("deliver:UpdatePayload", "net.network.deliver"),
        ("churn:s003", "workloads.driver"),
        ("gc-tick:s001", "gc.localtrace.tick"),
        ("gc-commit:s001", "gc.localtrace.tick"),
        ("update-retransmit:s001->s002", "gc.update.retransmit"),
        ("frame-timeout:f1", "core.backtrace.timeout"),
        ("outcome-timeout:t1", "core.backtrace.timeout"),
        ("", tracer.UNLABELLED),
        ("something-new:x", tracer.UNLABELLED),
    ],
)
def test_callbacks_are_classified_by_label(label, span):
    assert tracer.classify(label) == span
    assert tracer.layer_of("net.network.deliver") == "net.network"


def test_bound_method_callbacks_are_wrapped_once():
    class Owner:
        def tick(self):
            return 1

    owner = Owner()
    recorder = tracer.SpanRecorder()
    first = recorder.event_callback(owner.tick, "gc-tick:s0")
    assert recorder.event_callback(owner.tick, "gc-tick:s0") is first
    thunk = lambda: 2  # noqa: E731 - a per-event closure, like the churn driver's
    assert recorder.event_callback(thunk, "churn:s0") is not recorder.event_callback(
        thunk, "churn:s0"
    )
    assert first() == 1 and recorder.rows["gc.localtrace.tick"][0] == 1


# -- digests ------------------------------------------------------------------


def test_digest_is_stable_across_two_in_process_builds():
    first = worker.run("churn_gc", 3, "timed", smoke=True)
    second = worker.run("churn_gc", 3, "timed", smoke=True)
    assert first["sim_digest"] == second["sim_digest"]
    assert first["counter_order_digest"] == second["counter_order_digest"]
    assert first["events"] == second["events"] > 0
    assert worker.run("churn_gc", 4, "timed", smoke=True)["sim_digest"] != first["sim_digest"]


def test_traced_run_does_not_perturb_the_simulation_and_sums_to_the_root():
    untraced = worker.run("cycle_waves", 3, "timed", smoke=True)
    traced = worker.run("cycle_waves", 3, "traced", smoke=True)
    assert traced["sim_digest"] == untraced["sim_digest"]
    rows = traced["trace"]["rows"]
    assert sum(row[1] for row in rows.values()) == traced["trace"]["root_ns"]
    assert rows["core.backtrace.start"][0] == untraced["counters"]["backtrace.started"]
    assert all(check[1] for check in untraced["checks"])


def test_unreconciled_kinds_reports_only_unbalanced_payload_kinds():
    counters = {
        "messages.total": 9,
        "messages.Ping": 5,
        "messages.delivered.Ping": 4,
        "messages.dropped.Ping": 1,
        "messages.BackCall": 3,
        "messages.delivered.BackCall": 2,
        "messages.dropped.crash": 1,
    }
    assert worker.unreconciled_kinds(counters) == [
        "BackCall: sent=3 delivered=2 dropped=0"
    ]


# -- percentiles --------------------------------------------------------------


def test_percentile_rule_wants_ten_samples_beyond():
    samples = list(range(1, 1201))  # the issue's n = 1200
    assert metrics.percentile(samples, 990) == (1188, 12)
    assert metrics.tail_percentile(samples) == (990, 1188, 12)
    # n = 1000 is the smallest sample with ten values beyond p99 ...
    assert metrics.tail_percentile(list(range(1000)))[0] == 990
    # ... one fewer falls back to p98, and a handful to the median.
    assert metrics.tail_percentile(list(range(999)))[0] == 980
    assert metrics.tail_percentile(list(range(40)))[0] == 500
    assert metrics.percentile([5.0], 990) == (5.0, 0)


# -- compare ------------------------------------------------------------------


def _host(value, low, high, bound=0.10):
    return {"value": value, "min": low, "max": high, "n": 5, "bound": bound,
            "unit": "s", "kind": "host", "better": "lower"}


def _ledger(wall, digest="d1", swept=100):
    return {
        "smoke": False,
        "seed": 3,
        "workloads": {
            "churn_gc": {
                "sim_digest": digest,
                "end_to_end": {
                    "wall_s": wall,
                    "gc_msgs_per_swept_obj": {
                        "value": 3.5, "unit": "msgs/object", "kind": "exact", "bound": 0.05,
                    },
                },
                "per_layer": {
                    "store.heap.objects_swept": {"value": swept, "unit": "count", "kind": "exact"},
                    "sim.us_per_event": {"value": 31.0, "unit": "us", "kind": "host"},
                },
            }
        },
    }


def _verdicts(a, b):
    return {(w, m): v for w, m, v, _ in compare.compare(a, b)}


def test_compare_verdicts():
    base = _ledger(_host(2.00, 1.97, 2.04))
    assert _verdicts(base, _ledger(_host(2.05, 2.01, 2.08)))[("churn_gc", "wall_s")] == "same"
    assert _verdicts(base, _ledger(_host(2.40, 2.35, 2.44)))[("churn_gc", "wall_s")] == "worse"
    assert _verdicts(base, _ledger(_host(1.70, 1.66, 1.72)))[("churn_gc", "wall_s")] == "better"
    # Spread wider than the bound and overlapping ranges: cannot tell.
    noisy = _ledger(_host(2.30, 1.90, 2.60))
    assert _verdicts(base, noisy)[("churn_gc", "wall_s")] == "unresolved"
    # Wide but disjoint: every run of B is slower than every run of A.
    apart = _ledger(_host(2.60, 2.30, 2.90))
    assert _verdicts(base, apart)[("churn_gc", "wall_s")] == "worse"


def test_compare_requires_exact_metrics_and_digests_to_be_identical():
    base = _ledger(_host(2.00, 1.97, 2.04))
    changed = _ledger(_host(2.00, 1.97, 2.04), digest="d2", swept=101)
    verdicts = _verdicts(base, changed)
    assert verdicts[("churn_gc", "sim_digest")] == "differs"
    assert verdicts[("churn_gc", "store.heap.objects_swept")] == "differs"
    assert verdicts[("churn_gc", "gc_msgs_per_swept_obj")] == "same"
    # Per-layer host rows are for reading, not judged.
    assert ("churn_gc", "sim.us_per_event") not in verdicts


def test_compare_exit_status(tmp_path, capsys):
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    a.write_text(json.dumps(_ledger(_host(2.00, 1.97, 2.04))))
    b.write_text(json.dumps(_ledger(_host(2.02, 1.99, 2.05))))
    assert compare.main(str(a), str(b)) == 0
    b.write_text(json.dumps(_ledger(_host(2.50, 2.45, 2.55))))
    assert compare.main(str(a), str(b)) == 1
    assert "worse" in capsys.readouterr().out


# -- the contract file --------------------------------------------------------


def test_benchmark_json_matches_the_catalogue():
    root = Path(__file__).resolve().parents[2]
    spec = json.loads((root / "BENCHMARK.json").read_text())
    assert spec == report.contract_spec()
    assert [m["name"] for m in spec["end_to_end"]] == ["wall_s", "setup_s", "peak_rss_mb"]
    assert max(m["bound"] for m in spec["end_to_end"]) == spec["end_to_end"][1]["bound"]
