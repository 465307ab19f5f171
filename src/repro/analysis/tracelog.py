"""Structured protocol event logging.

Attach a :class:`TraceLog` to a simulation and it records, in simulated-time
order, the events an operator of the paper's system would want to audit:
local traces (with sweep counts), back-trace lifecycles (start, verdict),
barrier firings, and message traffic summaries.  Events are plain records --
filterable, assertable in tests, and renderable as a timeline.

The log observes through the same public hooks the system exposes
(metrics deltas plus site callbacks); it never changes behaviour.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, Iterable, List, Optional

from ..core.backtrace.messages import TraceOutcome
from ..ids import SiteId, TraceId
from ..sim.simulation import Simulation


@dataclass(frozen=True)
class Event:
    """One logged protocol event."""

    time: float
    site: SiteId
    kind: str
    detail: Dict[str, Any] = field(default_factory=dict)

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        extras = " ".join(f"{k}={v}" for k, v in sorted(self.detail.items()))
        return f"[{self.time:10.2f}] {self.site:>6} {self.kind:<18} {extras}"


class TraceLog:
    """Event recorder for one simulation."""

    def __init__(self, sim: Simulation, capacity: int = 100_000):
        self.sim = sim
        self.capacity = capacity
        self.events: List[Event] = []
        self.dropped = 0
        self._wrap_sites()

    # -- recording ------------------------------------------------------------

    def record(self, site: SiteId, kind: str, **detail) -> None:
        if len(self.events) >= self.capacity:
            self.dropped += 1
            return
        self.events.append(
            Event(time=self.sim.now, site=site, kind=kind, detail=detail)
        )

    def _wrap_sites(self) -> None:
        for site in self.sim.sites.values():
            self._wrap_one(site)

    def _wrap_one(self, site) -> None:
        log = self

        original_run = site.run_local_trace

        def run_local_trace():
            result = original_run()
            if result is not None:
                log.record(
                    site.site_id,
                    "local-trace",
                    swept=len(result.swept),
                    clean=result.clean_phase.objects_scanned,
                    suspected=len(result.suspected_objects),
                )
            return result

        site.run_local_trace = run_local_trace

        original_start = site.engine.start_trace

        def start_trace(outref_target):
            trace_id = original_start(outref_target)
            if trace_id is not None:
                log.record(
                    site.site_id, "backtrace-start",
                    trace=str(trace_id), outref=str(outref_target),
                )
            return trace_id

        site.engine.start_trace = start_trace

        original_outcome = site.engine.on_outcome

        def on_outcome(trace_id: TraceId, verdict: TraceOutcome):
            log.record(
                site.site_id, "backtrace-outcome",
                trace=str(trace_id), verdict=verdict.value,
            )
            if original_outcome is not None:
                original_outcome(trace_id, verdict)

        site.engine.on_outcome = on_outcome

        original_barrier = site.barrier.on_reference_arrival

        def on_reference_arrival(target):
            before = site.metrics.count("barrier.transfer_applied")
            original_barrier(target)
            if site.metrics.count("barrier.transfer_applied") > before:
                log.record(site.site_id, "transfer-barrier", inref=str(target))

        site.barrier.on_reference_arrival = on_reference_arrival

        original_crash = site.crash

        def crash():
            original_crash()
            log.record(site.site_id, "crash")

        site.crash = crash

        original_recover = site.recover

        def recover():
            original_recover()
            log.record(site.site_id, "recover")

        site.recover = recover

    # -- querying -------------------------------------------------------------------

    def of_kind(self, kind: str) -> List[Event]:
        return [event for event in self.events if event.kind == kind]

    def at_site(self, site: SiteId) -> List[Event]:
        return [event for event in self.events if event.site == site]

    def between(self, start: float, end: float) -> List[Event]:
        return [event for event in self.events if start <= event.time <= end]

    def kinds(self) -> Dict[str, int]:
        counts: Dict[str, int] = {}
        for event in self.events:
            counts[event.kind] = counts.get(event.kind, 0) + 1
        return counts

    # -- rendering -----------------------------------------------------------------------

    def render(
        self,
        kinds: Optional[Iterable[str]] = None,
        limit: Optional[int] = None,
    ) -> str:
        wanted = set(kinds) if kinds is not None else None
        lines = [
            str(event)
            for event in self.events
            if wanted is None or event.kind in wanted
        ]
        if limit is not None:
            lines = lines[-limit:]
        return "\n".join(lines)
