"""Differential-testing harness: back tracing vs the termination backend.

Two complete cycle-collection backends now live behind the
:class:`~repro.core.collector.Collector` boundary -- the paper's back tracer
and the termination-detection trial-deletion rival.  They share *everything
below* the boundary (heaps, reference listing, local traces, distance
propagation, barriers, the network) and disagree about *everything above*
it, which makes them ideal differential-testing oracles for each other: on
the same seeded workload both must reclaim **exactly** the same garbage --
the set the omniscient :class:`~repro.analysis.Oracle` computes -- differing
only in *when* they reclaim it.

Each case builds one seeded workload twice (identical construction: the
backend only matters once GC rounds start), cuts the same anchors, asks the
oracle for the ground-truth garbage set, then drives each simulation with
audited GC rounds until it reclaims everything or a round bound passes.
The verdict compares three things per backend pair:

- **agreement** -- reclaimed sets identical, and identical to the oracle's
  garbage set (every round audits ``check_invariants()`` on both sides);
- **latency** -- rounds to full reclamation per backend, plus the mean gap
  in per-object reclaim rounds over the common set;
- **residue** -- any object one backend reclaimed and the other left.

Like :mod:`.chaos`, matrix cells never raise: every violation lands on the
result row so a full seed x workload sweep reports all cells.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Sequence, Set, Tuple

from ..analysis.oracle import Oracle
from ..config import GcConfig, NetworkConfig, SimulationConfig
from ..errors import OracleError
from ..ids import ObjectId
from ..sim.simulation import Simulation
from ..workloads.churn import ChurnConfig, SiteChurn
from ..workloads.generators import build_ring_cycle
from ..workloads.hypertext import build_hypertext_web

#: The two rival backends every case cross-runs.
BACKENDS = ("backtrace", "termination")

#: Workload name -> builder; each builder makes garbage deterministically.
WORKLOADS = ("rings", "churn", "hypertext")

DEFAULT_SEEDS = tuple(range(8))


@dataclass
class BackendRun:
    """One backend's half of a differential case."""

    collector: str
    reclaimed: Set[ObjectId] = field(default_factory=set)
    #: object -> GC round (1-based) in which it disappeared.
    reclaim_round: Dict[ObjectId, int] = field(default_factory=dict)
    rounds_to_clear: Optional[int] = None
    residual_garbage: int = 0
    safety_ok: bool = True
    violations: List[str] = field(default_factory=list)


@dataclass
class DifferentialResult:
    """Verdict of one (seed, workload) cell."""

    seed: int
    workload: str
    expected_garbage: int = 0
    runs: Dict[str, BackendRun] = field(default_factory=dict)
    violations: List[str] = field(default_factory=list)

    @property
    def agreed(self) -> bool:
        return not self.violations and all(
            run.safety_ok and not run.violations for run in self.runs.values()
        )

    @property
    def latency_gap(self) -> Optional[float]:
        """Mean (termination - backtrace) per-object reclaim-round gap."""
        bt = self.runs.get("backtrace")
        tm = self.runs.get("termination")
        if bt is None or tm is None:
            return None
        common = [
            oid for oid in bt.reclaim_round if oid in tm.reclaim_round
        ]
        if not common:
            return None
        return sum(
            tm.reclaim_round[oid] - bt.reclaim_round[oid] for oid in common
        ) / len(common)


def _gc_config(collector: str) -> GcConfig:
    # Low thresholds bound rounds-to-suspicion so the drain loop converges
    # quickly under both backends; identical across the pair by construction.
    return GcConfig(
        collector=collector,
        suspicion_threshold=2,
        assumed_cycle_length=2,
    )


def _build_rings(sim: Simulation, seed: int, site_ids: Sequence[str]) -> None:
    n = len(site_ids)
    rotate = lambda offset: list(site_ids[offset:]) + list(site_ids[:offset])
    doomed = [
        build_ring_cycle(sim, rotate(index % n), objects_per_site=2)
        for index in range(3)
    ]
    for index in range(2):  # live bait: must survive both backends
        build_ring_cycle(sim, rotate((index + 1) % n))
    sim.settle()
    for ring in doomed:
        ring.make_garbage(sim)
    sim.settle()


def _build_churn(sim: Simulation, seed: int, site_ids: Sequence[str]) -> None:
    doomed = [build_ring_cycle(sim, list(site_ids)) for _ in range(2)]
    # Churn draws from the sim's named RNG streams, so both backend builds
    # replay the exact same operation sequence for one sim seed.
    churn = SiteChurn(sim, list(site_ids), config=ChurnConfig(mean_interval=5.0))
    churn.start(until=600.0)
    sim.run_for(700.0)
    churn.stop()
    sim.settle()
    for ring in doomed:
        ring.make_garbage(sim)
    sim.settle()


def _build_hypertext(sim: Simulation, seed: int, site_ids: Sequence[str]) -> None:
    # Sparse citations: with the default density one surviving catalog entry
    # transitively reaches nearly every document and no garbage forms.
    web = build_hypertext_web(
        sim,
        list(site_ids),
        citations_per_document=1,
        back_link_probability=0.9,
        seed=seed,
    )
    sim.settle()
    # Strand all but one catalogued document: whatever the surviving entry
    # doesn't reach through citations -- usually several cross-site citation
    # cycles -- becomes garbage; its own closure is the live bait.
    for index in list(web.catalog_entries)[1:]:
        web.unlink_from_catalog(sim, index)
    sim.settle()


_BUILDERS: Dict[str, Callable[[Simulation, int, Sequence[str]], None]] = {
    "rings": _build_rings,
    "churn": _build_churn,
    "hypertext": _build_hypertext,
}


def _run_backend(
    collector: str,
    seed: int,
    workload: str,
    n_sites: int,
    rounds_bound: int,
) -> Tuple[BackendRun, Set[ObjectId]]:
    """Build, cut, and drain one backend; return its run + oracle garbage."""
    run = BackendRun(collector=collector)
    config = SimulationConfig(
        seed=seed,
        gc=_gc_config(collector),
        network=NetworkConfig(pair_rng_streams=True),
    )
    sim = Simulation.create(config)
    site_ids = [f"s{index}" for index in range(n_sites)]
    sim.add_sites(site_ids, auto_gc=False)
    _BUILDERS[workload](sim, seed, site_ids)

    oracle = Oracle(sim)
    expected = oracle.garbage_set()
    remaining = set(sim.all_object_ids())
    initial = set(remaining)
    try:
        for round_index in range(1, rounds_bound + 1):
            sim.run_gc_round()
            violations = sim.check_invariants()
            if violations:
                raise OracleError("; ".join(violations))
            now_remaining = set(sim.all_object_ids())
            for oid in remaining - now_remaining:
                run.reclaim_round[oid] = round_index
            remaining = now_remaining
            if not oracle.garbage_set():
                run.rounds_to_clear = round_index
                break
        else:
            run.residual_garbage = len(oracle.garbage_set())
            run.violations.append(
                f"{collector}: {run.residual_garbage} garbage objects "
                f"survived {rounds_bound} rounds"
            )
    except OracleError as error:
        run.safety_ok = False
        run.violations.append(f"{collector}: {error}")
    run.reclaimed = initial - remaining
    return run, expected


def run_differential_case(
    seed: int,
    workload: str,
    n_sites: int = 4,
    rounds_bound: int = 40,
) -> DifferentialResult:
    """Cross-run both backends on one seeded workload; diff the outcome."""
    if workload not in _BUILDERS:
        raise ValueError(
            f"unknown workload {workload!r}; available: {', '.join(WORKLOADS)}"
        )
    result = DifferentialResult(seed=seed, workload=workload)
    expected_sets: Dict[str, Set[ObjectId]] = {}
    for collector in BACKENDS:
        run, expected = _run_backend(
            collector, seed, workload, n_sites, rounds_bound
        )
        result.runs[collector] = run
        expected_sets[collector] = expected

    # The build phase is backend-independent; if the ground truth differs,
    # the twin construction itself is broken -- flag it loudly.
    first, second = (expected_sets[name] for name in BACKENDS)
    if first != second:
        result.violations.append(
            f"non-identical twin builds: oracle garbage differs by "
            f"{len(first ^ second)} objects"
        )
        return result
    result.expected_garbage = len(first)

    bt, tm = (result.runs[name] for name in BACKENDS)
    if bt.reclaimed != tm.reclaimed:
        only_bt = sorted(str(oid) for oid in bt.reclaimed - tm.reclaimed)
        only_tm = sorted(str(oid) for oid in tm.reclaimed - bt.reclaimed)
        result.violations.append(
            f"reclaimed sets differ: only backtrace {only_bt[:5]}, "
            f"only termination {only_tm[:5]}"
        )
    for name, run in result.runs.items():
        if run.rounds_to_clear is not None and run.reclaimed != first:
            # Cleared the oracle's garbage set but swept a different set --
            # can only happen if it collected something live (the oracle
            # audit should have caught it first, but belt and braces).
            result.violations.append(
                f"{name}: reclaimed {len(run.reclaimed)} objects but oracle "
                f"expected {len(first)}"
            )
    return result


def run_differential_matrix(
    seeds: Sequence[int] = DEFAULT_SEEDS,
    workloads: Sequence[str] = WORKLOADS,
    **case_kwargs,
) -> List[DifferentialResult]:
    """Every seed against every workload; one result per cell."""
    results: List[DifferentialResult] = []
    for seed in seeds:
        for workload in workloads:
            results.append(run_differential_case(seed, workload, **case_kwargs))
    return results
