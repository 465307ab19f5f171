"""The metric catalogue and the arithmetic that fills it.

Two kinds of number exist in a deterministic simulator and every metric
says which it is:

``host``   host time or memory of the untraced timed phase; noisy; reported
           as the median of the repeats with min-max and n.
``trace``  host time from the single traced run (self time per operation);
           noisy, one sample, never judged against a bound.
``exact``  a simulated statistic; identical for a (commit, seed) whatever
           the host does.  Two runs of one commit must agree to the digit.

Every count covers the *timed phase* (counter deltas from the end of the
warm-up slice), the same scope as the span recorder's rows, so a
``*_ns_per_*`` ratio divides like by like.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

from .tracer import layer_of

ALL = ("ping_storm", "churn_gc", "churn_gc_w2", "cycle_waves", "big_heap")

UPDATE_KINDS = ("UpdatePayload", "UpdateDeltaPayload", "UpdateRefreshRequest")
BACK_KINDS = ("BackCall", "BackCallBatch", "BackReply", "BackReplyBatch", "BackOutcome")
INSERT_KINDS = ("InsertRequest", "InsertDone")
GC_KINDS = UPDATE_KINDS + ("UpdateAck",) + BACK_KINDS + INSERT_KINDS


@dataclass(frozen=True)
class Metric:
    name: str
    unit: str
    kind: str  # host | trace | exact
    better: str = "lower"
    bound: Optional[float] = None  # share of the median it may worsen by
    workloads: Tuple[str, ...] = ALL


# Definitions are in README.md ("End-to-end metrics").
END_TO_END = [
    Metric("wall_s", "s", "host", bound=0.25),
    Metric("setup_s", "s", "host", bound=0.25),
    Metric("peak_rss_mb", "MB", "host", bound=0.10),
    Metric("reclaim_ticks_p50", "ticks", "exact", bound=0.05, workloads=("cycle_waves",)),
    Metric("reclaim_ticks_p99", "ticks", "exact", bound=0.05, workloads=("cycle_waves",)),
    Metric("garbage_object_ticks", "object-ticks", "exact", bound=0.05,
           workloads=("cycle_waves", "churn_gc")),
    Metric("gc_msgs_per_swept_obj", "msgs/object", "exact", bound=0.05,
           workloads=("cycle_waves", "churn_gc", "big_heap")),
    Metric("failed_checks", "count", "exact", bound=0.0),
]


def _m(name, unit, kind, better="lower"):
    return Metric(name, unit, kind, better=better)


# The ``trace`` rows exist for the sequential workloads only (worker-side
# spans of the sharded run are out of reach from outside) and the
# ``sim.parallel`` rows for churn_gc_w2 only; see README.md.
PER_LAYER = [
    _m("sim.us_per_event", "us", "host"),
    _m("sim.scheduler.events", "count", "exact"),
    _m("sim.scheduler.pushes", "count", "exact"),
    _m("sim.scheduler.self_ns_per_event", "ns", "trace"),
    _m("net.network.sends", "count", "exact"),
    _m("net.network.units", "count", "exact"),
    _m("net.network.dropped", "count", "exact"),
    _m("net.network.send_self_ns_per_msg", "ns", "trace"),
    _m("net.network.deliver_self_ns_per_msg", "ns", "trace"),
    _m("site.receive_self_ns_per_msg", "ns", "trace"),
    _m("site.send_self_ns_per_msg", "ns", "trace"),
    _m("site.mutator_ops", "count", "exact"),
    _m("site.mutator_self_ns_per_op", "ns", "trace"),
    _m("workloads.driver_ops", "count", "exact"),
    _m("workloads.driver_self_ns_per_op", "ns", "trace"),
    _m("store.heap.allocs", "count", "exact"),
    _m("store.heap.alloc_self_ns_per_op", "ns", "trace"),
    _m("store.heap.objects_resident_end", "count", "exact"),
    _m("store.heap.objects_swept", "count", "exact", better="higher"),
    _m("gc.localtrace.traces", "count", "exact"),
    _m("gc.localtrace.traces_full", "count", "exact"),
    _m("gc.localtrace.traces_fast_path", "count", "exact"),
    _m("gc.localtrace.traces_skipped", "count", "exact"),
    _m("gc.localtrace.skip_ratio", "ratio", "exact", better="higher"),
    _m("gc.localtrace.objects_scanned", "count", "exact"),
    _m("gc.localtrace.compute_self_ns_per_trace", "ns", "trace"),
    _m("gc.localtrace.commit_self_ns_per_trace", "ns", "trace"),
    _m("gc.localtrace.objects_scanned_per_s", "1/s", "host", better="higher"),
    _m("core.distance.flat_calls", "count", "exact"),
    _m("core.distance.vector_calls", "count", "exact"),
    _m("core.distance.flat_ns_per_object", "ns", "trace"),
    _m("core.distance.vector_ns_per_object", "ns", "trace"),
    _m("core.backinfo.computes", "count", "exact"),
    _m("core.backinfo.self_ns_per_compute", "ns", "trace"),
    _m("core.backinfo.unions_computed", "count", "exact"),
    _m("core.backinfo.union_memo_hits", "count", "exact", better="higher"),
    _m("gc.update.full_msgs", "count", "exact"),
    _m("gc.update.delta_msgs", "count", "exact"),
    _m("gc.update.acks", "count", "exact"),
    _m("gc.update.retransmits", "count", "exact"),
    _m("gc.update.units", "count", "exact"),
    _m("core.backtrace.started", "count", "exact"),
    _m("core.backtrace.garbage", "count", "exact", better="higher"),
    _m("core.backtrace.live", "count", "exact"),
    _m("core.backtrace.timeout_live", "count", "exact"),
    _m("core.backtrace.garbage_ratio", "ratio", "exact", better="higher"),
    _m("core.backtrace.msgs", "count", "exact"),
    _m("core.backtrace.msgs_per_trace", "msgs/trace", "exact"),
    _m("core.backtrace.cache_hits", "count", "exact", better="higher"),
    _m("core.backtrace.coalesced", "count", "exact", better="higher"),
    _m("core.backtrace.calls_batched", "count", "exact", better="higher"),
    _m("core.backtrace.handler_self_ns_per_msg", "ns", "trace"),
    _m("core.collector.check_triggers_self_ns", "ns", "trace"),
    _m("sim.parallel.windows", "count", "exact"),
    _m("sim.parallel.events_per_window", "count", "exact", better="higher"),
    _m("sim.parallel.cross_shard_messages", "count", "exact"),
    _m("sim.parallel.ring_messages", "count", "exact"),
    _m("sim.parallel.ring_spills", "count", "exact"),
    _m("sim.parallel.ring_bytes", "bytes", "exact"),
    _m("sim.parallel.pipe_bytes", "bytes", "exact"),
    _m("sim.parallel.commands_sent", "count", "exact"),
    _m("sim.parallel.arena_bytes", "bytes", "exact"),
    _m("sim.parallel.worker_cpu_s", "s", "host"),
    _m("sim.parallel.coordinator_cpu_s", "s", "host"),
    _m("sim.parallel.speedup_vs_seq", "ratio", "host", better="higher"),
    _m("trace.overhead_ratio", "ratio", "trace"),
    _m("trace.unattributed_share", "ratio", "trace"),
]

BY_NAME: Dict[str, Metric] = {m.name: m for m in END_TO_END + PER_LAYER}

#: What BENCHMARK.json may call end-to-end: its contract wants every such
#: metric from every workload and never 0, so only the host metrics that
#: apply everywhere qualify.  The workload-specific simulated ones are
#: end-to-end in the ledger and ride as per-layer rows in the contract.
CONTRACT_END_TO_END = [
    m for m in END_TO_END if m.kind == "host" and m.workloads == ALL
]
CONTRACT_PER_LAYER = [
    m for m in END_TO_END if m not in CONTRACT_END_TO_END and m.name != "failed_checks"
] + PER_LAYER


# -- percentiles --------------------------------------------------------------

PERCENTILE_LADDER = (500, 900, 950, 980, 990, 999)  # per mille
MIN_BEYOND = 10


def percentile(sorted_samples: Sequence[float], per_mille: int) -> Tuple[float, int]:
    """Nearest-rank percentile and the number of samples beyond it."""
    n = len(sorted_samples)
    rank = max(1, -(-n * per_mille // 1000))
    return sorted_samples[rank - 1], n - rank


def tail_percentile(sorted_samples: Sequence[float]) -> Tuple[int, float, int]:
    """The highest ladder percentile with >= MIN_BEYOND samples beyond it.

    Returns ``(per_mille, value, samples_beyond)``; with too few samples for
    any rung the median is all that can be said.
    """
    best = PERCENTILE_LADDER[0]
    for per_mille in PERCENTILE_LADDER:
        if percentile(sorted_samples, per_mille)[1] >= MIN_BEYOND:
            best = per_mille
    value, beyond = percentile(sorted_samples, best)
    return best, value, beyond


# -- derivation ---------------------------------------------------------------


def _ratio(numerator: float, denominator: float) -> float:
    return numerator / denominator if denominator else 0.0


def simulated_end_to_end(
    workload: str, timed: Dict, audit: Optional[Dict]
) -> Dict[str, Dict]:
    """The exact end-to-end rows a workload has, from one timed result and
    (for the object-ticks integral) the audit result."""
    rows: Dict[str, Dict] = {}
    counters = timed["counters"]
    reclaim = timed["results"].get("reclaim_ticks")
    if reclaim:
        p50, beyond50 = percentile(reclaim, 500)
        rows["reclaim_ticks_p50"] = {"value": p50, "n": len(reclaim), "beyond": beyond50}
        per_mille, value, beyond = tail_percentile(reclaim)
        rows["reclaim_ticks_p99"] = {
            "value": value, "n": len(reclaim), "beyond": beyond,
            "percentile": per_mille / 10,
        }
    if audit is not None and workload in BY_NAME["garbage_object_ticks"].workloads:
        rows["garbage_object_ticks"] = {
            "value": audit["audit"]["garbage_object_ticks"],
            "n": audit["audit"]["oracle_samples"],
        }
    if workload in BY_NAME["gc_msgs_per_swept_obj"].workloads:
        msgs = sum(counters.get(f"messages.{kind}", 0) for kind in GC_KINDS)
        rows["gc_msgs_per_swept_obj"] = {
            "value": _ratio(msgs, counters.get("gc.objects_swept", 0)),
            "n": counters.get("gc.objects_swept", 0),
        }
    return rows


def per_layer(
    timed: Dict,
    wall_s: float,
    traced: Optional[Dict],
    base_wall_s: Optional[float] = None,
) -> Dict[str, float]:
    """Every per-layer value this workload has.

    ``timed`` is one untraced result (its counters are exact, so any repeat
    serves), ``wall_s`` the median untraced timed phase, ``traced`` the
    traced result or None.
    """
    c = timed["counters"].get
    events = timed["events"]
    out: Dict[str, float] = {
        "sim.us_per_event": _ratio(wall_s * 1e6, events),
        "sim.scheduler.events": events,
        "net.network.sends": c("messages.total", 0),
        "net.network.units": c("messages.units", 0),
        "net.network.dropped": c("messages.lost", 0),
        "workloads.driver_ops": c("churn.ops", 0),
        "store.heap.objects_resident_end": timed["objects_resident_end"],
        "store.heap.objects_swept": c("gc.objects_swept", 0),
        "gc.localtrace.traces": c("gc.local_traces", 0),
        "gc.localtrace.traces_full": c("gc.traces_full", 0),
        "gc.localtrace.traces_fast_path": c("gc.traces_fast_path", 0),
        "gc.localtrace.traces_skipped": c("gc.traces_skipped", 0),
        "gc.localtrace.objects_scanned": c("gc.objects_scanned", 0),
        "gc.localtrace.objects_scanned_per_s": _ratio(c("gc.objects_scanned", 0), wall_s),
        "core.backinfo.unions_computed": c("backinfo.unions_computed", 0),
        "core.backinfo.union_memo_hits": c("backinfo.union_memo_hits", 0),
        "gc.update.full_msgs": c("messages.UpdatePayload", 0),
        "gc.update.delta_msgs": c("messages.UpdateDeltaPayload", 0),
        "gc.update.acks": c("messages.UpdateAck", 0),
        "gc.update.retransmits": c("gc.update_retransmits", 0),
        "gc.update.units": c("units.UpdatePayload", 0) + c("units.UpdateDeltaPayload", 0),
        "core.backtrace.started": c("backtrace.started", 0),
        "core.backtrace.garbage": c("backtrace.completed_garbage", 0),
        "core.backtrace.live": c("backtrace.completed_live", 0),
        "core.backtrace.timeout_live": c("backtrace.completed_timeout_live", 0),
        "core.backtrace.cache_hits": c("backtrace.cache_hits", 0),
        "core.backtrace.coalesced": c("backtrace.coalesced", 0),
        "core.backtrace.calls_batched": c("backtrace.calls_batched", 0),
    }
    ticks = (
        out["gc.localtrace.traces"] + out["gc.localtrace.traces_skipped"]
    )
    out["gc.localtrace.skip_ratio"] = _ratio(
        out["gc.localtrace.traces_skipped"] + out["gc.localtrace.traces_fast_path"], ticks
    )
    back_msgs = sum(c(f"messages.{kind}", 0) for kind in BACK_KINDS)
    out["core.backtrace.msgs"] = back_msgs
    out["core.backtrace.msgs_per_trace"] = _ratio(back_msgs, out["core.backtrace.started"])
    out["core.backtrace.garbage_ratio"] = _ratio(
        out["core.backtrace.garbage"], out["core.backtrace.started"]
    )

    coordination = timed.get("coordination")
    if coordination:
        windows = coordination["windows"]
        out.update({
            "sim.parallel.windows": windows,
            "sim.parallel.events_per_window": _ratio(events, windows),
            "sim.parallel.cross_shard_messages": coordination["cross_shard_messages"],
            "sim.parallel.ring_messages": coordination["ring_messages"],
            "sim.parallel.ring_spills": coordination["ring_spills"],
            "sim.parallel.ring_bytes": coordination["ring_bytes"],
            "sim.parallel.pipe_bytes": coordination["bytes_sent"] + coordination["bytes_recv"],
            "sim.parallel.commands_sent": coordination["commands_sent"],
            "sim.parallel.arena_bytes": coordination["arena_bytes"],
            "sim.parallel.worker_cpu_s": timed["worker_cpu_s"],
            "sim.parallel.coordinator_cpu_s": timed["coordinator_cpu_s"],
        })
        if base_wall_s:
            out["sim.parallel.speedup_vs_seq"] = _ratio(base_wall_s, wall_s)

    if traced is not None:
        out["trace.overhead_ratio"] = _ratio(traced["wall_s"], wall_s)
        rows = traced["trace"]["rows"]
        root_ns = traced["trace"]["root_ns"]

        def self_ns(*names):
            return sum(rows[n][1] for n in names if n in rows)

        def calls(*names):
            return sum(rows[n][0] for n in names if n in rows)

        out["trace.unattributed_share"] = _ratio(
            self_ns("ledger.root", "unlabelled.event"), root_ns
        )
        if not coordination:
            mutator = [n for n in rows if n.startswith("site.mutator_")]
            kernels = traced["trace"]["kernels"]
            out.update({
                "sim.scheduler.pushes": calls("sim.scheduler.push"),
                "sim.scheduler.self_ns_per_event": _ratio(
                    self_ns("sim.scheduler.run_until", "sim.scheduler.push"), events
                ),
                "net.network.send_self_ns_per_msg": _ratio(
                    self_ns("net.network.send"), calls("net.network.send")
                ),
                "net.network.deliver_self_ns_per_msg": _ratio(
                    self_ns("net.network.deliver"), calls("net.network.deliver")
                ),
                "site.receive_self_ns_per_msg": _ratio(
                    self_ns("site.receive"), calls("site.receive")
                ),
                "site.send_self_ns_per_msg": _ratio(self_ns("site.send"), calls("site.send")),
                "site.mutator_ops": calls(*mutator),
                "site.mutator_self_ns_per_op": _ratio(self_ns(*mutator), calls(*mutator)),
                "workloads.driver_self_ns_per_op": _ratio(
                    self_ns("workloads.driver"), calls("workloads.driver")
                ),
                "store.heap.allocs": calls("store.heap.alloc"),
                "store.heap.alloc_self_ns_per_op": _ratio(
                    self_ns("store.heap.alloc"), calls("store.heap.alloc")
                ),
                "gc.localtrace.compute_self_ns_per_trace": _ratio(
                    self_ns("gc.localtrace.compute"), calls("gc.localtrace.compute")
                ),
                "gc.localtrace.commit_self_ns_per_trace": _ratio(
                    self_ns("gc.localtrace.commit"), calls("gc.localtrace.commit")
                ),
                "core.distance.flat_calls": kernels["flat_calls"],
                "core.distance.vector_calls": kernels["vector_calls"],
                "core.distance.flat_ns_per_object": _ratio(
                    self_ns("core.distance.flat"), kernels["flat_objects"]
                ),
                "core.distance.vector_ns_per_object": _ratio(
                    self_ns("core.distance.vector"), kernels["vector_objects"]
                ),
                "core.backinfo.computes": calls("core.backinfo.compute"),
                "core.backinfo.self_ns_per_compute": _ratio(
                    self_ns("core.backinfo.compute"), calls("core.backinfo.compute")
                ),
                "core.backtrace.handler_self_ns_per_msg": _ratio(
                    self_ns("core.backtrace.handler"), calls("core.backtrace.handler")
                ),
                "core.collector.check_triggers_self_ns": self_ns(
                    "core.collector.check_triggers"
                ),
            })
    return out


def layer_shares(traced: Dict) -> List[Tuple[str, int, float]]:
    """``(layer, self_ns, share of the root span)`` rows, largest first.

    Non-overlapping by construction: every nanosecond of the root span is
    the self time of exactly one span, and a span belongs to one layer.
    """
    rows = traced["trace"]["rows"]
    root_ns = traced["trace"]["root_ns"]
    layers: Dict[str, int] = {}
    for name, (_calls, self_ns, _total) in rows.items():
        layer = layer_of(name)
        layers[layer] = layers.get(layer, 0) + self_ns
    return sorted(
        ((layer, ns, _ratio(ns, root_ns)) for layer, ns in layers.items() if ns),
        key=lambda row: -row[1],
    )
