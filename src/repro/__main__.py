"""Command-line interface: ``python -m repro <command>``.

Commands:

- ``demo``       -- the quickstart: watch a two-site cycle get collected.
- ``figures``    -- rebuild the paper's figure scenarios and print what
                    happens on each (F1, F2, F3, F5 stories).
- ``compare``    -- the collector comparison table (benchmark E6).
- ``stress``     -- a randomized full-concurrency run with live safety
                    auditing (like benchmark E7).
- ``scale``      -- a many-site churn run on the sharded parallel engine
                    (``--workers N`` picks the worker-process count).
- ``chaos``      -- the oracle-audited seed x fault-plan matrix (E17).
- ``diff``       -- differential testing: run the back tracer and the
                    termination backend over identical seeded workloads and
                    oracle-check they reclaim the same garbage (E22, the
                    differential matrix; their message costs are E6 rows).
- ``replay``     -- re-run one case file (``tests/cases/*.json``, or any
                    ``Case.to_json()`` output) and print its row and first
                    violation; exits non-zero on a violation.

Every command accepts ``--seed`` for deterministic replay.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

from . import GcConfig, Simulation, SimulationConfig
from .analysis import Oracle
from .config import COLLECTORS
from .harness.cases import (
    Case, chaos_cases, chaos_row, compare_backends, diff_cases, diff_row, run_case,
)
from .harness.report import Table
from .workloads import GraphBuilder


def cmd_demo(args: argparse.Namespace) -> int:
    sim = Simulation.create(SimulationConfig(seed=args.seed))
    sim.add_sites(["P", "Q"], auto_gc=False)
    builder = GraphBuilder(sim)
    root = builder.obj("P", root=True)
    p, q = builder.obj("P"), builder.obj("Q")
    builder.link(root, p)
    builder.link(p, q)
    builder.link(q, p)
    sim.site("P").mutator_remove_ref(root, p)
    oracle = Oracle(sim)
    print("garbage cycle created:", sorted(str(o) for o in oracle.garbage_set()))
    for round_number in range(1, 40):
        sim.run_gc_round()
        oracle.check_safety()
        if not oracle.garbage_set():
            print(f"collected after {round_number} rounds; "
                  f"{sim.metrics.count('messages.BackCall')} back calls, "
                  f"{sim.metrics.count('backtrace.completed_garbage')} trace confirmed")
            return 0
    print("NOT collected (this should never happen)")
    return 1


def cmd_figures(args: argparse.Namespace) -> int:
    from .harness.scenarios import build_figure1, build_figure2, build_figure3

    print("Figure 1: local tracing collects d,e by updates; back tracing gets f,g")
    scenario = build_figure1(seed=args.seed)
    oracle = Oracle(scenario.sim)
    for round_number in range(1, 40):
        scenario.sim.run_gc_round()
        if not oracle.garbage_set():
            print(f"  all garbage gone after round {round_number}")
            break

    print("Figure 2: insets computed for Q's outrefs")
    scenario = build_figure2(seed=args.seed)
    sim = scenario.sim
    for entry in sim.site("Q").inrefs.entries():
        for source in list(entry.sources):
            # Through the entry API so the table's distance epoch advances
            # and the incremental trace below sees the change.
            entry.set_source_distance(source, 9)
    sim.site("Q").run_local_trace()
    for entry in sim.site("Q").outrefs.entries():
        inset = ",".join(str(x) for x in sorted(entry.inset))
        print(f"  outref {entry.target}: inset {{{inset}}}")

    print("Figure 3: branching back trace over a live structure")
    scenario = build_figure3(seed=args.seed)
    sim = scenario.sim
    for _ in range(30):
        sim.run_gc_round()
    alive = all(
        sim.site(scenario[l].site).heap.contains(scenario[l])
        for l in ("a", "b", "c", "d")
    )
    print(f"  live structure intact after 30 rounds: {alive}")
    return 0


def cmd_compare(args: argparse.Namespace) -> int:
    from .harness.comparison import PROTOCOL_KINDS, run_with_collector

    table = Table(
        "Collecting a 2-site cycle in an 8-site system",
        ["collector", "rounds", "msgs", "sites", "ok", "ok w/ crash"],
    )
    for name in sorted(PROTOCOL_KINDS):
        healthy = run_with_collector(name)
        crashed = run_with_collector(name, crash_bystander=True)
        table.add_row(
            name,
            healthy["rounds"] if healthy["rounds"] is not None else "-",
            healthy["messages"],
            len(healthy["involved"]),
            "yes" if healthy["collected"] else "no",
            "yes" if crashed["collected"] else "NO",
        )
    table.print()
    return 0


def cmd_stress(args: argparse.Namespace) -> int:
    from .mutator import RandomWorkload, WorkloadConfig
    from .workloads import build_random_clustered_graph, build_ring_cycle

    gc = GcConfig(
        suspicion_threshold=1,
        assumed_cycle_length=4,
        local_trace_period=60.0,
        local_trace_period_jitter=20.0,
        local_trace_duration=5.0,
        backtrace_timeout=200.0,
    )
    sites = [f"s{i}" for i in range(args.sites)]
    sim = Simulation.create(SimulationConfig(seed=args.seed, gc=gc))
    sim.add_sites(sites, auto_gc=True)
    graph = build_random_clustered_graph(sim, sites, objects_per_site=25, seed=args.seed)
    rings = [build_ring_cycle(sim, sites[k:] + sites[:k]) for k in range(3)]
    mutators = [
        RandomWorkload(sim, f"m{i}", graph.roots[i % len(graph.roots)],
                       config=WorkloadConfig(mean_interval=3.0))
        for i in range(3)
    ]
    for mutator in mutators:
        mutator.start()
    oracle = Oracle(sim)
    for step in range(1, 21):
        sim.run_for(args.duration / 20)
        if step == 5:
            for ring in rings:
                ring.make_garbage(sim)
        oracle.check_safety()
        print(f"t={sim.now:7.0f} objects={sim.total_objects():4d} "
              f"swept={sim.metrics.count('gc.objects_swept'):4d} "
              f"traces={sim.metrics.count('backtrace.completed_garbage')}g/"
              f"{sim.metrics.count('backtrace.completed_live')}l safety=OK")
    for mutator in mutators:
        mutator.stop()
    sim.quiesce_auto_gc()
    sim.settle(quiet_time=30.0, max_rounds=3000)
    for _ in range(120):
        sim.run_gc_round()
        oracle.check_safety()
        if not oracle.garbage_set():
            print("drained: zero residual garbage, zero safety violations")
            return 0
    print("residual garbage remains!")
    return 1


def cmd_scale(args: argparse.Namespace) -> int:
    from .config import NetworkConfig
    from .sim.parallel import ParallelSimulation
    from .workloads import SiteChurn

    config = SimulationConfig(
        seed=args.seed,
        network=NetworkConfig(pair_rng_streams=True),
        parallel_workers=args.workers,
    )
    sim = Simulation.create(config)
    sites = [f"s{i:03d}" for i in range(args.sites)]
    sim.add_sites(sites, auto_gc=True)
    churn = SiteChurn(sim, sites)
    churn.start(until=args.duration)
    fired = 0
    for step in range(10):
        fired += sim.run_for(args.duration / 10)
        print(
            f"t={sim.now:8.0f} events={fired:8d} objects={sim.total_objects():6d}"
        )
    metrics = sim.merged_metrics()
    print(
        f"done: {args.sites} sites / {args.workers} workers, "
        f"{fired} events, {metrics.count('churn.ops')} churn ops, "
        f"{metrics.count('messages.total')} messages, "
        f"{metrics.count('gc.objects_swept')} objects swept"
    )
    if isinstance(sim, ParallelSimulation):
        sim.close()
    return 0


CHAOS_COLUMNS = ["seed", "plan", "safe", "collected", "rounds", "dropped", "dup", "retrans", "suppressed"]
DIFF_COLUMNS = ["seed", "workload", "garbage", "bt rounds", "term rounds", "gap", "agree"]


def _cell(value):
    """yes/NO for a verdict, - for no value, a signed float for a gap."""
    if isinstance(value, bool):
        return "yes" if value else "NO"
    if value is None:
        return "-"
    return f"{value:+.2f}" if isinstance(value, float) else value


def _report(title, columns, outcomes, tally: str) -> int:
    """Print one table row per (leading cells, row, case name, violations)
    outcome, then the violations and how many outcomes had none; exit
    non-zero if any had one."""
    table = Table(title, columns)
    for lead, row, _, _ in outcomes:
        table.add_row(*lead, *map(_cell, row.values()))
    table.print()
    for _, _, name, violations in outcomes:
        for violation in violations:
            print(f"  [{name}] {violation}")
    failures = sum(1 for *_, violations in outcomes if violations)
    print(f"{len(outcomes) - failures}/{len(outcomes)} {tally}")
    return 1 if failures else 0


def _chaos_outcome(case, run):
    return (case.config.seed, case.plan.name), chaos_row(run), case.name, run.violations


def _diff_outcome(comparison):
    case = comparison.case
    return (case.config.seed, case.builder), diff_row(comparison), case.name, comparison.failures


def cmd_chaos(args: argparse.Namespace) -> int:
    outcomes = [
        _chaos_outcome(case, run_case(case))
        for case in chaos_cases(range(args.seed, args.seed + args.seeds))
    ]
    return _report(
        "Chaos matrix: oracle-audited GC under injected faults",
        CHAOS_COLUMNS, outcomes, "cases passed",
    )


def cmd_diff(args: argparse.Namespace) -> int:
    outcomes = [
        _diff_outcome(compare_backends(case))
        for case in diff_cases(range(args.seed, args.seed + args.seeds))
    ]
    return _report(
        "Differential matrix: backtrace vs termination, oracle-audited",
        DIFF_COLUMNS, outcomes, "cells agreed",
    )


def cmd_replay(args: argparse.Namespace) -> int:
    case = Case.from_json(json.loads(Path(args.case).read_text()))
    if args.backend is None and case.agrees:
        columns, outcome = DIFF_COLUMNS, _diff_outcome(compare_backends(case))
    else:
        columns, outcome = CHAOS_COLUMNS, _chaos_outcome(case, run_case(case, args.backend))
    *row, violations = outcome
    title = f"Replay of {case.name}" + (f" under {args.backend}" if args.backend else "")
    return _report(title, columns, [(*row, violations[:1])], "passed")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Back-tracing distributed cycle collection (PODC'97 reproduction)",
    )
    parser.add_argument("--seed", type=int, default=0)
    sub = parser.add_subparsers(dest="command", required=True)
    sub.add_parser("demo", help="two-site cycle quickstart")
    sub.add_parser("figures", help="replay the paper's figures")
    sub.add_parser("compare", help="collector comparison table (E6)")
    stress = sub.add_parser("stress", help="randomized concurrency stress (E7)")
    stress.add_argument("--sites", type=int, default=4)
    stress.add_argument("--duration", type=float, default=3000.0)
    scale = sub.add_parser(
        "scale", help="many-site churn on the sharded parallel engine"
    )
    scale.add_argument("--sites", type=int, default=64)
    scale.add_argument("--workers", type=int, default=1)
    scale.add_argument("--duration", type=float, default=2000.0)
    chaos = sub.add_parser(
        "chaos", help="fault-injection matrix with oracle auditing (E17)"
    )
    chaos.add_argument("--seeds", type=int, default=8, help="number of seeds")
    diff = sub.add_parser(
        "diff",
        help="differential matrix: backtrace vs termination backend (E22)",
    )
    diff.add_argument("--seeds", type=int, default=8, help="number of seeds")
    replay = sub.add_parser(
        "replay", help="re-run one case file and print its row"
    )
    replay.add_argument("case", help="path to a case JSON file")
    replay.add_argument(
        "--backend",
        choices=COLLECTORS,
        help="run under this collector only (default: the case's own, or "
        "both rivals for a case that checks agreement)",
    )

    args = parser.parse_args(argv)
    handlers = {
        "demo": cmd_demo,
        "figures": cmd_figures,
        "compare": cmd_compare,
        "stress": cmd_stress,
        "scale": cmd_scale,
        "chaos": cmd_chaos,
        "diff": cmd_diff,
        "replay": cmd_replay,
    }
    return handlers[args.command](args)


if __name__ == "__main__":
    sys.exit(main())
