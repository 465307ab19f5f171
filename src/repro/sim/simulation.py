"""Top-level simulation: scheduler + network + sites + mutators.

A :class:`Simulation` is the single object experiments interact with.  It
owns the deterministic scheduler, the RNG registry, the metrics recorder, the
network, and every site.  Controlled experiments usually disable automatic
GC (``auto_gc=False``), call :meth:`run_gc_round` to give every site exactly
one local trace per round (the "round" of the section 3 distance theorem),
and advance simulated time with :meth:`run_for` to deliver messages.
:meth:`audit_state` is the one state the oracle and :meth:`check_invariants`
read, on this engine and on the sharded one alike.
"""

from __future__ import annotations

from typing import Callable, Dict, List, NamedTuple, Optional

from ..config import SimulationConfig
from ..errors import SimulationError
from ..ids import ObjectId, SiteId, TraceId
from ..metrics import MetricsRecorder
from ..net.faults import FaultPlan
from ..net.latency import LatencyModel
from ..net.message import Message
from ..net.network import Network
from ..site.site import Site, SiteAudit
from .rng import RngRegistry
from .scheduler import Scheduler


class AuditState(NamedTuple):
    """The one state the oracle and :meth:`Simulation.check_invariants` read:
    each site's :class:`SiteAudit` in site order, and every message sent but
    neither delivered nor dropped yet, in no particular order."""

    sites: Dict[SiteId, SiteAudit]
    in_flight: List[Message]


class Simulation:
    """A complete simulated distributed object store."""

    def __init__(
        self,
        config: Optional[SimulationConfig] = None,
        latency_model: Optional[LatencyModel] = None,
        fault_plan: Optional[FaultPlan] = None,
    ):
        self.config = config or SimulationConfig()
        self.scheduler = Scheduler()
        self.rng = RngRegistry(self.config.seed)
        self.metrics = MetricsRecorder()
        self.network = Network(
            self.scheduler,
            self.rng,
            self.metrics,
            config=self.config.network,
            latency_model=latency_model,
            fault_plan=fault_plan,
        )
        self.sites: Dict[SiteId, Site] = {}
        self._mutator_hop_handlers: Dict[str, Callable[[ObjectId], None]] = {}
        self._trace_outcomes: List[tuple] = []

    @classmethod
    def create(
        cls,
        config: Optional[SimulationConfig] = None,
        *,
        latency_model: Optional[LatencyModel] = None,
        fault_plan: Optional[FaultPlan] = None,
    ) -> "Simulation":
        """Build the right engine for ``config``: the single entry point.

        Returns a plain sequential :class:`Simulation` unless
        ``config.parallel_workers > 1``, in which case the sharded parallel
        engine is constructed (imported lazily -- most runs never need it).
        Callers should prefer this over instantiating either class directly:
        it keeps call sites engine-agnostic.
        """
        config = config or SimulationConfig()
        target = cls
        if cls is Simulation and config.parallel_workers > 1:
            from .parallel import ParallelSimulation

            target = ParallelSimulation
        return target(config, latency_model=latency_model, fault_plan=fault_plan)

    # -- construction ---------------------------------------------------------------

    def add_site(self, site_id: SiteId, auto_gc: bool = True) -> Site:
        if site_id in self.sites:
            raise SimulationError(f"site {site_id!r} already exists")
        site = Site(
            site_id,
            self.scheduler,
            self.network,
            self.config.gc,
            metrics=self.metrics,
            jitter_rng=self.rng.stream(f"gc-jitter:{site_id}"),
            auto_gc=auto_gc,
            on_mutator_hop=self._dispatch_mutator_hop,
            on_trace_outcome=self._record_trace_outcome,
        )
        self.sites[site_id] = site
        self.network.register(site_id, site.receive)
        return site

    def add_sites(self, site_ids, auto_gc: bool = True) -> List[Site]:
        return [self.add_site(site_id, auto_gc=auto_gc) for site_id in site_ids]

    def site(self, site_id: SiteId) -> Site:
        try:
            return self.sites[site_id]
        except KeyError:
            raise SimulationError(f"no such site: {site_id!r}") from None

    def site_of(self, oid: ObjectId) -> Site:
        return self.site(oid.site)

    # -- mutator wiring -----------------------------------------------------------------

    def register_mutator_hops(
        self, name: str, handler: Callable[[ObjectId], None]
    ) -> None:
        self._mutator_hop_handlers[name] = handler

    def _dispatch_mutator_hop(self, mutator: str, target: ObjectId) -> None:
        handler = self._mutator_hop_handlers.get(mutator)
        if handler is not None:
            handler(target)

    def _record_trace_outcome(self, site_id: SiteId, trace_id: TraceId, verdict) -> None:
        self._trace_outcomes.append((self.scheduler.now, site_id, trace_id, verdict))

    @property
    def trace_outcomes(self) -> List[tuple]:
        """(time, initiator site, trace id, verdict) for completed traces."""
        return list(self._trace_outcomes)

    # -- time control --------------------------------------------------------------------

    @property
    def now(self) -> float:
        return self.scheduler.now

    def run_for(self, duration: float, max_events: Optional[int] = None) -> int:
        return self.scheduler.run_for(duration, max_events=max_events)

    def run_until(self, time: float, max_events: Optional[int] = None) -> int:
        return self.scheduler.run_until(time, max_events=max_events)

    def step(self) -> bool:
        return self.scheduler.step()

    def settle(self, quiet_time: float = 50.0, max_rounds: int = 1000) -> None:
        """Advance time until no events fire for ``quiet_time`` units.

        Useful after manual GC rounds: lets all update/insert/back-trace
        messages drain.  Raises if the system never goes quiet.
        """
        for _ in range(max_rounds):
            fired = self.scheduler.run_for(quiet_time)
            if fired == 0:
                return
        raise SimulationError("simulation did not settle")

    def quiesce_auto_gc(self) -> None:
        """Cancel every site's periodic GC timer.

        Useful before drain phases: with the periodic tickers silenced,
        :meth:`settle` terminates deterministically and GC can be driven
        with :meth:`run_gc_round`.
        """
        for site in self.sites.values():
            site.stop_auto_gc()

    # -- network faults ------------------------------------------------------------------

    def partition(self, *groups) -> None:
        """Split the network (see :meth:`Network.partition`), on any engine."""
        self.network.partition(*groups)

    def heal_partition(self) -> None:
        self.network.heal_partition()

    # -- controlled GC -----------------------------------------------------------------------

    def run_gc_round(self, settle_time: float = 50.0) -> None:
        """Each non-crashed site runs exactly one local trace, then messages drain.

        This is a "round" in the sense of the distance-propagation theorem of
        section 3: after k rounds, the distance estimates of a garbage cycle
        are at least k.
        """
        for site_id in sorted(self.sites):
            site = self.sites[site_id]
            if not site.crashed:
                site.run_local_trace()
            # Let the commit (if the trace is non-atomic) and the resulting
            # update/back-trace traffic progress before the next site runs.
            self.scheduler.run_for(settle_time)
        self.settle(settle_time)

    # -- global introspection ---------------------------------------------------------------------

    def audit_state(self) -> AuditState:
        """Everything the oracle reads, as fresh copies, on either engine."""
        return AuditState(
            {site_id: self.sites[site_id].audit() for site_id in sorted(self.sites)},
            self.scheduler.queued_deliveries(),
        )

    def merged_metrics(self) -> MetricsRecorder:
        """Counter totals of the whole run (the sharded engine merges shards)."""
        return self.metrics

    def check_invariants(self) -> List[str]:
        """Every broken run invariant as text, ``[]`` when all hold.

        Callable at any instant on either engine: oracle safety, per-kind
        ``sent = delivered + dropped + in flight`` for originals and for
        fault-plan copies, every heap's flat mirror, and no garbage-flagged
        inref live.
        """
        from ..analysis.oracle import audit_violations

        mirrors = [self.site(site_id).check_flat_mirror() for site_id in sorted(self.sites)]
        counters = self.merged_metrics().counts_with_prefix("messages.")
        violations = [text for text in mirrors if text]
        return violations + audit_violations(self.audit_state(), counters)

    def total_objects(self) -> int:
        return len(self.all_object_ids())

    def all_object_ids(self) -> List[ObjectId]:
        return [oid for site in self.audit_state().sites.values() for oid in site.objects]
