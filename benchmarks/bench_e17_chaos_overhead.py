"""E17 -- Clean-path cost of the fault-injection layer.

The fault plan hook sits on ``Network.send``, so it is consulted on every
message of every run -- including perfectly healthy ones.  This bench prices
that on the e13-shaped steady-state workload (site churn plus ring cycles on
16 sites with auto GC, then explicit collection rounds), run two ways:

- ``off``    -- the default configuration, ``fault_plan=None`` (the plan
  hook is a single None check per send);
- ``armed``  -- the same run with a fault plan attached whose only window
  lies entirely in the past: ``FaultPlan.roll`` walks its rules on every
  send but never fires, pricing the consultation itself.

The acceptance bar: ``armed`` over ``off`` must stay under 3% wall clock
(pinned in ``BENCH_chaos_overhead.json``) and must be byte-identical -- an
idle plan draws zero fault randomness.
"""

import time

import pytest

from repro import GcConfig, Simulation, SimulationConfig
from repro.analysis import Oracle
from repro.net.faults import FaultPlan
from repro.workloads import ChurnConfig, SiteChurn, build_ring_cycle

N_SITES = 16
N_RINGS = 6
N_DOOMED = 3
CHURN_UNTIL = 1200.0
RUN_FOR = 1500.0

GC = dict(
    suspicion_threshold=2,
    assumed_cycle_length=2,
    back_threshold_increment=1,
    local_trace_period=100.0,
    local_trace_period_jitter=25.0,
)

#: Active long before the workload starts: consulted on every send, never
#: firing.  Three rules, so ``roll`` pays its full per-rule matching loop.
STALE_PLAN = FaultPlan.loss(1.0, start=0.0, end=0.5).merge(
    FaultPlan.duplication(1.0, copies=2, lag=5.0, start=0.0, end=0.5),
    FaultPlan.reorder_burst(1.0, delay=5.0, start=0.0, end=0.5),
).named("stale")


def run_mode(mode, seed=3, run_for=RUN_FOR):
    gc = GcConfig(**GC)
    plan = STALE_PLAN if mode == "armed" else None
    sim = Simulation.create(SimulationConfig(seed=seed, gc=gc), fault_plan=plan)
    sites = [f"s{i:02d}" for i in range(N_SITES)]
    sim.add_sites(sites, auto_gc=True)
    rings = [
        build_ring_cycle(sim, [sites[(2 * k + j) % N_SITES] for j in range(4)])
        for k in range(N_RINGS)
    ]
    churn = SiteChurn(sim, sites, ChurnConfig(mean_interval=0.8))
    churn.start(until=min(CHURN_UNTIL, run_for * 0.8))

    started = time.perf_counter()
    sim.run_for(run_for)
    sim.quiesce_auto_gc()
    sim.settle(quiet_time=30.0, max_rounds=3000)
    for ring in rings[:N_DOOMED]:
        ring.make_garbage(sim)
    oracle = Oracle(sim)
    for _ in range(30):
        sim.run_gc_round()
        if not Oracle(sim).garbage_set():
            break
    wall_seconds = time.perf_counter() - started

    oracle.check_safety()
    assert not oracle.garbage_set()
    survivors = {
        site_id: frozenset(sim.sites[site_id].heap.object_ids())
        for site_id in sim.sites
    }
    return {
        "mode": mode,
        "wall_seconds": wall_seconds,
        "messages": sim.metrics.count("messages.total"),
        "acks": sim.metrics.count("messages.UpdateAck"),
        "retransmits": sim.metrics.count("gc.update_retransmits"),
        "dropped": sim.metrics.count("messages.lost"),
        "survivors": survivors,
    }


def run_comparison(run_for=RUN_FOR, repeats=5):
    """Best-of-N wall seconds per mode (the structural counters never vary).

    Modes are interleaved round-robin rather than run in blocks: frequency
    scaling and cache warm-up drift over a multi-second session, and a
    blocked order would charge that drift to whichever mode ran last.
    """
    stats = {}
    for _ in range(repeats):
        for mode in ("off", "armed"):
            row = run_mode(mode, run_for=run_for)
            best = stats.get(mode)
            if best is None or row["wall_seconds"] < best["wall_seconds"]:
                stats[mode] = row
    return stats


def overhead_pct(stats, mode):
    baseline = stats["off"]["wall_seconds"]
    return 100.0 * (stats[mode]["wall_seconds"] - baseline) / baseline


def test_e17_fault_layer_is_inert_on_the_clean_path():
    stats = run_comparison(run_for=300.0, repeats=1)
    # The armed-but-idle plan must not change a single outcome or counter.
    assert stats["off"]["survivors"] == stats["armed"]["survivors"]
    assert stats["off"]["messages"] == stats["armed"]["messages"]
    assert stats["armed"]["dropped"] == 0
    # The update channel's only extra clean-path traffic is acks; a healthy
    # run never retransmits.
    assert stats["off"]["retransmits"] == 0
    assert stats["off"]["acks"] > 0


@pytest.mark.parametrize("mode", ["off", "armed"])
def test_e17_wall_time(benchmark, mode):
    stats = benchmark.pedantic(
        run_mode, args=(mode,), kwargs={"run_for": 300.0}, rounds=1, iterations=1
    )
    assert stats["wall_seconds"] >= 0


if __name__ == "__main__":
    # Standalone mode: emit the comparison as JSON so the repo can pin the
    # headline numbers (see BENCH_chaos_overhead.json).  ``--smoke`` runs a
    # shortened window.
    import json
    import sys

    smoke = "--smoke" in sys.argv
    run_for = 300.0 if smoke else RUN_FOR
    stats = run_comparison(run_for=run_for, repeats=2 if smoke else 5)
    try:
        from .hostinfo import host_header
    except ImportError:
        from hostinfo import host_header

    results = {"host": host_header()}
    results |= {
        mode: {k: v for k, v in row.items() if k not in ("survivors", "mode")}
        for mode, row in stats.items()
    }
    results["run_for"] = run_for
    results["fault_layer_overhead_pct"] = overhead_pct(stats, "armed")
    results["armed_byte_identical"] = (
        stats["off"]["survivors"] == stats["armed"]["survivors"]
    )
    json.dump(results, sys.stdout, indent=2)
    print()
