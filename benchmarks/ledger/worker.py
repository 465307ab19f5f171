"""One repeat of one workload, in a fresh process.

Protocol (all modes): build -> warm-up slice (both are ``setup_s``, the
import of ``repro`` included) -> ``gc.collect(); gc.freeze(); gc.disable()``
-> timed phase -> digest and counters.  Modes:

``timed``   wrappers off; gives the host-time end-to-end metrics.
``traced``  span wrappers on (see :mod:`.tracer`); gives the ``*_ns_*`` rows.
``audit``   sequential engine, oracle sampled every ``audit_interval`` ticks
            (safety at every sample, garbage object-ticks integral), then a
            drain to quiescence.  Untimed.

The oracle only reads, so all three modes must end the timed phase in the
same state: the runner compares their digests.
"""

from __future__ import annotations

import gc
import hashlib
import json
import resource
import sys
import time
from typing import Dict, List, Optional

def sim_digest(sites: Dict, counters: Dict[str, int], outcomes: List, events: int) -> str:
    """blake2b over the final state: engine-independent.

    Counters are taken sorted and without zeros because the sharded engine
    merges them in another first-touch order than the sequential engine
    creates them in; the creation order has its own digest below.
    """
    state = {
        "sites": sites,
        "counters": sorted((k, v) for k, v in counters.items() if v),
        "outcomes": [[t, site, str(trace), str(verdict)] for t, site, trace, verdict in outcomes],
        "events": events,
    }
    blob = json.dumps(state, sort_keys=True, separators=(",", ":")).encode()
    return hashlib.blake2b(blob, digest_size=16).hexdigest()


def counter_order_digest(counters: Dict[str, int]) -> str:
    """blake2b over the *ordered* counter item list (sequential engine):
    first-touch creation order is part of byte identity for the twin-deleting
    PRs."""
    blob = json.dumps(list(counters.items()), separators=(",", ":")).encode()
    return hashlib.blake2b(blob, digest_size=16).hexdigest()


def unreconciled_kinds(counters: Dict[str, int]) -> List[str]:
    """Payload kinds with ``sent != delivered + dropped`` (at quiescence)."""
    bad = []
    for key, sent in counters.items():
        kind = key[len("messages."):]
        if not key.startswith("messages.") or "." in kind or not kind[:1].isupper():
            continue
        delivered = counters.get(f"messages.delivered.{kind}", 0)
        dropped = counters.get(f"messages.dropped.{kind}", 0)
        if sent != delivered + dropped:
            bad.append(f"{kind}: sent={sent} delivered={delivered} dropped={dropped}")
    return sorted(bad)


def peak_rss_mb() -> float:
    """Largest resident set of this process or any child it waited for."""
    peak_kb = max(
        resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
        resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss,
    )
    return peak_kb / 1024.0


class OracleAudit:
    """The audit run's oracle: safety at every sample, garbage integral."""

    def __init__(self, sim):
        from repro.analysis import Oracle

        self.sim = sim
        self.oracle = Oracle(sim)
        self.last = sim.now
        self.object_ticks = 0.0
        self.samples = 0
        self.violations: List[str] = []

    def check_safety(self) -> None:
        from repro.errors import OracleError

        try:
            self.oracle.check_safety()
        except OracleError as exc:  # recorded as a failed check; the run goes on
            self.violations.append(f"t={self.sim.now}: {exc}")

    def sample(self, now: float) -> None:
        self.check_safety()
        self.object_ticks += len(self.oracle.garbage_set()) * (now - self.last)
        self.last = now
        self.samples += 1

    def drain(self, scenario) -> List[tuple]:
        """After the timed phase: let the collector finish, then go quiet.

        Churn stopped at its deadline; the collector gets up to
        ``drain_limit`` ticks, then the GC timers are silenced so that the
        network settles and the per-kind send accounting must balance.
        """
        sim = self.sim
        deadline = sim.now + scenario.drain_limit
        while self.oracle.garbage_set() and sim.now < deadline:
            sim.run_for(scenario.drain_step)
            self.check_safety()
        leftover = len(self.oracle.garbage_set())
        sim.quiesce_auto_gc()
        sim.settle(quiet_time=50.0, max_rounds=2000)
        unbalanced = unreconciled_kinds(_counters(sim, parallel=False))
        return [
            ("oracle_safety", not self.violations, "; ".join(self.violations[:3])),
            ("garbage_collected_after_drain", leftover == 0, f"left={leftover}"),
            ("sent_eq_delivered_plus_dropped", not unbalanced, "; ".join(unbalanced)),
        ]


def run(
    workload: str,
    seed: int,
    mode: str = "timed",
    smoke: bool = False,
    spans_out: Optional[str] = None,
) -> Dict[str, object]:
    setup_started = time.perf_counter()
    from . import scenarios, tracer

    recorder = tally = None
    if mode == "traced":
        recorder = tracer.SpanRecorder()
        # Shard workers are forked from this process and would inherit every
        # wrapper without anyone reading their recorders: the sharded run
        # gets the coordinator-side span only.
        tally = tracer.install(
            recorder, coordinator_only=scenarios.SCENARIOS[workload].WORKERS > 1
        )
    try:
        return _run(workload, seed, mode, smoke, spans_out, recorder, tally, setup_started)
    finally:
        if recorder is not None:
            recorder.restore()


def _run(workload, seed, mode, smoke, spans_out, recorder, tally, setup_started):
    from repro.analysis.export import graph_snapshot

    from . import scenarios, tracer

    # The audit needs every heap in this process: it always runs the
    # sequential engine, which is also what makes its digest the reference
    # the 2-worker run must match.
    scenario = scenarios.SCENARIOS[workload](
        seed, smoke, workers=1 if mode == "audit" else None
    )
    sim = scenario.sim
    parallel = hasattr(sim, "coordination_stats") and sim.parallel_active
    if recorder is not None and not parallel:
        tracer.watch_back_traces(recorder, sim)
    scenarios.advance(scenario, until=scenario.warm_until)
    warm_counters = _counters(sim, parallel)
    warm_events = scenario.events
    setup_s = time.perf_counter() - setup_started

    audit = OracleAudit(sim) if mode == "audit" else None
    timed_phase = _timed_phase
    if recorder is not None:
        recorder.reset()
        timed_phase = recorder.wrap(_timed_phase, tracer.ROOT)
    gc.collect()
    gc.freeze()
    gc.disable()
    cpu_started = time.process_time()
    started = time.perf_counter()
    timed_phase(scenario, audit)
    wall_s = time.perf_counter() - started
    coordinator_cpu_s = time.process_time() - cpu_started
    gc.enable()

    counters = _counters(sim, parallel)
    outcomes = sim.trace_outcomes
    objects_end = sim.total_objects()
    coordination = None
    worker_cpu_s = 0.0
    if parallel:
        sites = sim.snapshot()["sites"]
        coordination = sim.coordination_stats()
        sim.close()
        children = resource.getrusage(resource.RUSAGE_CHILDREN)
        worker_cpu_s = children.ru_utime + children.ru_stime
    else:
        sites = graph_snapshot(sim)["sites"]
    result: Dict[str, object] = {
        "workload": workload,
        "seed": seed,
        "mode": mode,
        "smoke": smoke,
        "setup_s": setup_s,
        "wall_s": wall_s,
        "events": scenario.events - warm_events,
        "sim_digest": sim_digest(sites, counters, outcomes, scenario.events),
        "counter_order_digest": None if parallel else counter_order_digest(counters),
        # Timed-phase deltas, the scope of every per-layer count.
        "counters": {
            k: v - warm_counters.get(k, 0)
            for k, v in counters.items()
            if not k.startswith("involve.")
        },
        "objects_resident_end": objects_end,
        "results": scenario.results(),
        "coordination": coordination,
        "coordinator_cpu_s": coordinator_cpu_s,
        "worker_cpu_s": worker_cpu_s,
    }
    checks = scenario.check(counters)
    if scenario.quiescent_at_end:
        unbalanced = unreconciled_kinds(counters)
        checks.append(
            ("sent_eq_delivered_plus_dropped", not unbalanced, "; ".join(unbalanced))
        )
    if recorder is not None:
        result["trace"] = {
            "rows": recorder.export(),
            "root_ns": recorder.rows[tracer.ROOT][2],
            "kernels": vars(tally),
        }
        if spans_out:
            with open(spans_out, "w") as fh:
                for span_id, name, start, end, parent, note in recorder.raw:
                    fh.write(json.dumps({
                        "id": span_id, "name": name, "start_ns": start,
                        "end_ns": end, "parent": parent, "note": note,
                    }) + "\n")
    if audit is not None:
        checks.extend(audit.drain(scenario))
        result["audit"] = {
            "garbage_object_ticks": audit.object_ticks,
            "oracle_samples": audit.samples,
        }
    result["checks"] = [list(check) for check in checks]
    result["peak_rss_mb"] = peak_rss_mb()
    return result


def _counters(sim, parallel: bool) -> Dict[str, int]:
    metrics = sim.merged_metrics() if parallel else sim.metrics
    return dict(metrics.snapshot().counters)


def _timed_phase(scenario, audit: Optional[OracleAudit]) -> None:
    from .scenarios import advance

    scenario.at_boundary(scenario.warm_until)
    if audit is None:
        advance(scenario)
    else:
        advance(scenario, step=scenario.audit_interval, on_step=audit.sample)


def main(argv: List[str]) -> int:
    import argparse

    parser = argparse.ArgumentParser(prog="benchmarks.ledger _worker")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--mode", choices=("timed", "traced", "audit"), default="timed")
    parser.add_argument("--smoke", action="store_true")
    parser.add_argument("--spans-out")
    args = parser.parse_args(argv)
    result = run(args.workload, args.seed, args.mode, args.smoke, args.spans_out)
    sys.stdout.write(json.dumps(result) + "\n")
    return 0
