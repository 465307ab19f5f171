"""The simulated network.

Messages are handed to :meth:`Network.send`, which draws a latency, applies
crash/partition blocking and the optional declarative fault plan
(:mod:`repro.net.faults`, the one source of loss, duplication and
reordering), and schedules delivery through the event
scheduler.  With ``fifo_per_pair`` enabled (the default, matching the paper's
assumption R1 in section 6.4), delivery times between any ordered pair of
sites are monotonic, so messages between two sites never overtake each other
even when their sampled latencies would reorder them.

Accounting (all names in :mod:`repro.metrics.names`): every original send is
counted under ``messages.{Kind}``; it then either delivers exactly once
(``messages.delivered.{Kind}``) or is dropped exactly once
(``messages.dropped.{Kind}``, plus a reason aggregate under
``messages.dropped.{crash,partition,fault}`` and the legacy
``messages.lost``), so per kind ``sent = delivered + dropped`` once nothing
is in flight.  Fault-plan duplicate copies are accounted separately
(``messages.duplicated.{Kind}`` injected = ``messages.dup_delivered.{Kind}``
+ ``messages.dup_dropped.{Kind}``).

Randomness: each ordered pair draws latencies from its own stream
``net:{src}->{dst}`` and fault rolls from ``fault:{src}->{dst}``, so its
k-th draw depends only on the sender's own send order -- on every engine,
which is what lets a sharded run draw exactly the sequential run's values.

Hot path: the per-send lookup chain (endpoint dict, crash set, partition
map, per-pair RNG stream, FIFO floor dict, f-string counter names) is
collapsed into one :class:`_Link` struct per ordered pair, built on first
use and cached in ``_links``.  A link caches everything about the pair that
only changes at topology events -- the destination's deliver function, the
pair's latency sampler and its latency and fault RNG streams, the
prefiltered fault rules, the cached crash/partition verdict, the FIFO floor,
and per-payload-class accounting (:class:`_KindCells`) -- so a clean send
costs one link lookup, one accounting call, one envelope and one scheduler
push, and a clean delivery one link lookup and one accounting call.  Every
delivery is scheduled by exactly one ``Scheduler.schedule_at(time,
self._deliver, "deliver:{Kind}", dst, message)`` call, and that queued
event is the one record of the message in flight
(:meth:`Scheduler.queued_deliveries`).  The perf ledger's
tracer (``benchmarks/ledger/tracer.py``) wraps that call, ``Network.send``
and ``Site.send`` / ``Site.receive`` to attribute time, so those seams are
part of the contract.  Every mutation that could change
any of that (``register``, ``crash``, ``recover``, ``partition``,
``heal_partition``, ``attach_shard``) drops the whole cache; links rebuild
lazily with rule-for-rule identical behaviour.  The RNG registry memoises
streams by name, so a rebuilt link resumes the pair's draw sequence exactly
where it left off.
"""

from __future__ import annotations

import random
from typing import Callable, Dict, List, Optional, Set, Tuple

from ..config import NetworkConfig
from ..errors import SimulationError, UnknownSiteError
from ..ids import SiteId
from ..metrics import MetricsRecorder, names
from ..metrics.names import MSG_DELIVERED, MSG_TOTAL, MSG_UNITS
from ..sim.rng import RngRegistry
from ..sim.scheduler import Scheduler
from .faults import FaultPlan
from .latency import LatencyModel, UniformLatency
from .message import Message, Payload

DeliverFn = Callable[[Message], None]

_ORIGINAL_ONLY = (None,)
"""The lags of a send the fault plan did not duplicate: the original alone."""


class _KindCells:
    """Per-(payload class, ordered pair) accounting: one call per send, one
    per delivery.

    Resolved once per (link, class).  The two hot methods write the
    recorder's store directly instead of going through one
    :class:`~repro.metrics.counters.CounterCell` ``add`` per counter; they
    perform the historical ``incr`` sequence name for name and in order, so
    counter first-touch order (and hence snapshots) stays byte-identical.
    The names they hold are the recorder's interned strings (``cell(n).name``)
    -- a private f-string per (link, class) would keep thousands of equal
    copies alive.  The cold outcomes (drops, duplicate copies) stay cells.
    """

    __slots__ = (
        "_counts",
        "_sent",
        "_units",
        "_involve_src",
        "_involve_dst",
        "_delivered",
        "dropped",
        "duplicated",
        "dup_delivered",
        "dup_dropped",
        "deliver_label",
    )

    def __init__(
        self, metrics: MetricsRecorder, payload_class: type, src: SiteId, dst: SiteId
    ):
        kind = payload_class.kind()
        cell = metrics.cell
        self._counts = metrics._counters
        self._sent = cell(names.msg_sent(kind)).name
        self._units = cell(f"units.{kind}").name
        self._involve_src = cell(f"involve.{kind}.{src}").name
        self._involve_dst = cell(f"involve.{kind}.{dst}").name
        self._delivered = cell(names.msg_delivered_kind(kind)).name
        self.dropped = cell(names.msg_dropped_kind(kind))
        self.duplicated = cell(names.msg_duplicated(kind))
        self.dup_delivered = cell(names.msg_dup_delivered(kind))
        self.dup_dropped = cell(names.msg_dup_dropped(kind))
        self.deliver_label = "deliver:" + kind

    def count_send(self, units: int) -> None:
        """One original send: the per-kind count, the totals, then per-kind
        size units and per-site attribution (which sites a protocol
        involves and what it really ships; E6)."""
        counts = self._counts
        get = counts.get
        name = self._sent
        counts[name] = get(name, 0) + 1
        counts[MSG_TOTAL] = get(MSG_TOTAL, 0) + 1
        counts[MSG_UNITS] = get(MSG_UNITS, 0) + units
        name = self._units
        counts[name] = get(name, 0) + units
        name = self._involve_src
        counts[name] = get(name, 0) + 1
        name = self._involve_dst
        counts[name] = get(name, 0) + 1

    def count_delivered(self) -> None:
        """One original delivery."""
        counts = self._counts
        counts[MSG_DELIVERED] = counts.get(MSG_DELIVERED, 0) + 1
        name = self._delivered
        counts[name] = counts.get(name, 0) + 1


class _Link:
    """Cached per-ordered-pair state: everything a send needs in one struct.

    Valid only until the next topology mutation; ``Network._invalidate_links``
    flushes the FIFO floor back to ``_last_delivery`` and drops the cache.
    """

    __slots__ = (
        "src",
        "dst",
        "deliver",
        "blocked",
        "rng",
        "draw_latency",
        "fault_rng",
        "fault_rules",
        "fifo",
        "last_delivery",
        "local",
        "kind_cells",
    )

    def __init__(
        self,
        src: SiteId,
        dst: SiteId,
        deliver: DeliverFn,
        blocked: Optional[str],
        rng: random.Random,
        draw_latency: Callable[[random.Random], float],
        fault_rng: Optional[random.Random],
        fault_rules: Optional[tuple],
        fifo: bool,
        last_delivery: float,
        local: bool,
    ):
        self.src = src
        self.dst = dst
        self.deliver = deliver
        #: Drop reason every message on this link dies of right now
        #: ("crash" / "partition"), or None.  Safe to cache: every event
        #: that could change it invalidates the link cache.
        self.blocked = blocked
        self.rng = rng
        #: The latency model's sampler for this pair (``draw(rng) -> delay``).
        self.draw_latency = draw_latency
        self.fault_rng = fault_rng
        self.fault_rules = fault_rules
        self.fifo = fifo
        self.last_delivery = last_delivery
        #: False only in shard mode when ``dst`` lives on another shard.
        self.local = local
        #: Keyed by payload class: the kind string is computed once, where
        #: the entry is built, not per message.
        self.kind_cells: Dict[type, _KindCells] = {}


class Network:
    """Routes messages between registered sites with simulated delays."""

    def __init__(
        self,
        scheduler: Scheduler,
        rng: RngRegistry,
        metrics: MetricsRecorder,
        config: Optional[NetworkConfig] = None,
        latency_model: Optional[LatencyModel] = None,
        fault_plan: Optional[FaultPlan] = None,
    ):
        self._scheduler = scheduler
        self._rng_registry = rng
        self._metrics = metrics
        self._config = config or NetworkConfig()
        self._latency = latency_model or UniformLatency(
            self._config.min_latency, self._config.max_latency
        )
        self._faults = fault_plan if fault_plan is not None and not fault_plan.is_empty else None
        # Cheap per-send gate: outside this window no link rule can match,
        # so roll() is skipped entirely (an idle plan costs one comparison).
        self._fault_window = self._faults.link_window if self._faults else None
        self._endpoints: Dict[SiteId, DeliverFn] = {}
        self._crashed: Set[SiteId] = set()
        self._partition: Optional[Dict[SiteId, int]] = None
        self._last_delivery: Dict[Tuple[SiteId, SiteId], float] = {}
        # Shard mode (set by the parallel engine inside a worker process):
        # sends to sites outside ``_shard_sites`` are not scheduled locally
        # but appended to ``_shard_outbox`` as (deliver_at, message) pairs
        # with the latency draw and FIFO clamp already applied sender-side.
        self._shard_sites: Optional[Set[SiteId]] = None
        self._shard_outbox: Optional[List[Tuple[float, Message]]] = None
        # Set on the sharded engine's coordinator once its workers forked:
        # the live networks are then the workers' copies and this one only
        # answers pre-fork reads (see mark_forked_away).
        self._forked_away = False
        # The per-pair link cache (the hot-path fast lane; see module
        # docstring for the invalidation contract).
        self._links: Dict[Tuple[SiteId, SiteId], _Link] = {}
        # Pair-independent cells of the drop path, interned once.
        cell = metrics.cell
        self._cell_lost = cell(names.MSG_LOST)
        self._reason_cells = {
            reason: cell(names.msg_dropped_reason(reason))
            for reason in ("crash", "partition", "fault")
        }

    # -- topology -----------------------------------------------------------

    def register(self, site_id: SiteId, deliver: DeliverFn) -> None:
        """Attach a site's receive function to the network."""
        self._endpoints[site_id] = deliver
        # Links cache the deliver fn (and the partition map consults the
        # endpoint set), so any (re-)registration drops the cache.
        self._invalidate_links()

    @property
    def fault_plan(self) -> Optional[FaultPlan]:
        return self._faults

    # -- failures -------------------------------------------------------------

    def crash(self, site_id: SiteId) -> None:
        """Messages to/from a crashed site are lost (counted as drops)."""
        self._require_live("Simulation.site(site_id).crash()")
        self._crashed.add(site_id)
        self._invalidate_links()

    def recover(self, site_id: SiteId) -> None:
        self._require_live("Simulation.site(site_id).recover()")
        self._crashed.discard(site_id)
        self._invalidate_links()

    def partition(self, *groups: Set[SiteId]) -> None:
        """Split the network: messages between different groups are lost.

        Sites not named in any group form one additional implicit group.
        """
        self._require_live("Simulation.partition()")
        mapping: Dict[SiteId, int] = {}
        for index, group in enumerate(groups):
            for site_id in group:
                mapping[site_id] = index
        implicit = len(groups)
        for site_id in self._endpoints:
            mapping.setdefault(site_id, implicit)
        self._partition = mapping
        self._invalidate_links()

    def heal_partition(self) -> None:
        self._require_live("Simulation.heal_partition()")
        self._partition = None
        self._invalidate_links()

    def _partitioned(self, src: SiteId, dst: SiteId) -> bool:
        if self._partition is None:
            return False
        return self._partition.get(src) != self._partition.get(dst)

    def _blocked(self, src: SiteId, dst: SiteId) -> Optional[str]:
        """The drop reason a message on this link would die of, or None.

        One rule for both ends of a message's life: links cache this verdict
        for :meth:`send` and :meth:`_deliver` alike, so crash/partition
        handling is symmetric and every discard is counted.
        """
        if src in self._crashed or dst in self._crashed:
            return "crash"
        if self._partitioned(src, dst):
            return "partition"
        return None

    def _drop(self, cells: _KindCells, dup: bool, reason: str) -> None:
        """Count one discarded message (original vs duplicate copy)."""
        if dup:
            cells.dup_dropped.add()
            return
        self._cell_lost.add()
        cells.dropped.add()
        self._reason_cells[reason].add()

    # -- the link cache ------------------------------------------------------

    def _build_link(self, src: SiteId, dst: SiteId) -> _Link:
        deliver = self._endpoints.get(dst)
        if deliver is None:
            raise UnknownSiteError(f"no site registered as {dst!r}")
        streams = self._rng_registry
        if self._faults is not None:
            fault_rng: Optional[random.Random] = streams.stream(f"fault:{src}->{dst}")
            fault_rules: Optional[tuple] = self._faults.rules_for(src, dst)
        else:
            fault_rng = None
            fault_rules = None
        link = _Link(
            src=src,
            dst=dst,
            deliver=deliver,
            blocked=self._blocked(src, dst),
            rng=streams.stream(f"net:{src}->{dst}"),
            draw_latency=self._latency.sampler(src, dst),
            fault_rng=fault_rng,
            fault_rules=fault_rules,
            fifo=self._config.fifo_per_pair,
            last_delivery=self._last_delivery.get((src, dst), 0.0),
            local=self._shard_sites is None or dst in self._shard_sites,
        )
        self._links[(src, dst)] = link
        return link

    def _invalidate_links(self) -> None:
        """Drop every cached link, flushing FIFO floors back to the dict.

        RNG streams are NOT reset -- the registry keeps them by name, so a
        rebuilt link resumes each pair's draw sequence mid-stream, exactly
        as the uncached implementation would.
        """
        links = self._links
        if not links:
            return
        if self._config.fifo_per_pair:
            floors = self._last_delivery
            for pair, link in links.items():
                if link.last_delivery > 0.0:
                    floors[pair] = link.last_delivery
        links.clear()

    # -- sharding (parallel engine support) ---------------------------------

    def attach_shard(
        self,
        sites: Set[SiteId],
        outbox: List[Tuple[float, Message]],
    ) -> None:
        """Enter shard mode: this network instance serves only ``sites``.

        Called inside a forked worker process.  Sends whose destination is
        outside the shard are fully prepared sender-side (metrics, loss,
        latency draw, FIFO clamp) and then parked in ``outbox`` for the
        coordinator to route, instead of being scheduled on the local
        scheduler.  Per-pair RNG streams make the shard draw what the
        sequential run draws.
        """
        self._shard_sites = set(sites)
        self._shard_outbox = outbox
        self._invalidate_links()

    def mark_forked_away(self) -> None:
        """Coordinator side of the fork: this copy no longer reaches a site.

        A crash or partition applied here would be silently lost -- the
        shard workers never see it -- so those mutators raise from now on.
        """
        self._forked_away = True

    def _require_live(self, instead: str) -> None:
        if self._forked_away:
            raise SimulationError(
                "this Network is the coordinator's pre-fork copy; shard "
                f"workers would never see the change -- call {instead}"
            )

    def min_cross_latency(self, sites: Set[SiteId]) -> Optional[float]:
        """Tightest known floor on any delay leaving ``sites``, or ``None``.

        The minimum of :meth:`LatencyModel.min_delay` over every ordered
        (inside, outside) pair -- the shard-level outbound lookahead of the
        demand-driven window planner.  Shard-level (not per-site) because a
        message can hop cheaply *within* the shard before exiting: only the
        final cross-boundary hop is guaranteed, and that hop costs at least
        this minimum whatever path preceded it.  ``None`` when the model
        declines a bound for any pair (callers fall back to
        ``NetworkConfig.min_latency``) or when no site is outside.
        """
        best: Optional[float] = None
        outside = [dst for dst in self._endpoints if dst not in sites]
        if not outside:
            return None
        for src in sites:
            for dst in outside:
                bound = self._latency.min_delay(src, dst)
                if bound is None:
                    return None
                if best is None or bound < best:
                    best = bound
        return best

    def deliver_remote(self, message: Message) -> None:
        """Deliver a message routed in from another shard.

        The sender already paid the latency and FIFO clamp; this is the
        receiver half of :meth:`_deliver` (crash/partition checks happen at
        delivery time, exactly as in the sequential engine).
        """
        self._deliver(message)

    # -- sending ------------------------------------------------------------

    def send(self, src: SiteId, dst: SiteId, payload: Payload) -> None:
        """Send ``payload`` from ``src`` to ``dst`` (counted even if lost).

        A clean send costs one link lookup, one accounting call, one
        envelope and one scheduler push.
        """
        try:
            link = self._links[src, dst]
        except KeyError:
            link = self._build_link(src, dst)
        try:
            cells = link.kind_cells[payload.__class__]
        except KeyError:
            cells = link.kind_cells[payload.__class__] = _KindCells(
                self._metrics, payload.__class__, src, dst
            )
        cells.count_send(payload.size_units())
        # Every send draws an envelope uid, dropped or not.
        message = Message(src, dst, payload)

        if link.blocked is not None:
            self._drop(cells, False, link.blocked)
            return
        scheduler = self._scheduler
        now = scheduler.now
        extra_delay = 0.0
        lags = _ORIGINAL_ONLY
        fault_window = self._fault_window
        if fault_window is not None and fault_window[0] <= now < fault_window[1]:
            fate = self._faults.roll(
                now, src, dst, link.fault_rng, rules=link.fault_rules
            )
            if fate.drop:
                self._drop(cells, False, "fault")
                return
            extra_delay = fate.extra_delay
            lags = (None, *fate.duplicate_lags)

        # The original (lag None), then one copy per fault-plan duplicate,
        # each ``lag`` behind the original's delivery.  A copy is a fresh
        # envelope: its own uid (cross-shard routing orders by it) and the
        # dup marker for separate accounting.
        for lag in lags:
            if lag is None:
                deliver_at = now + link.draw_latency(link.rng) + extra_delay
            else:
                message = Message(src, dst, payload, None, True)
                cells.duplicated.add()
                deliver_at = original_at + lag
            if link.fifo:
                floor = link.last_delivery
                if deliver_at < floor:
                    deliver_at = floor
                link.last_delivery = deliver_at
            if lag is None:
                original_at = deliver_at
            if link.local:
                scheduler.schedule_at(
                    deliver_at, self._deliver, cells.deliver_label, dst, message
                )
            else:
                # Cross-shard: delivery time is already fixed sender-side.
                self._shard_outbox.append((deliver_at, message))

    def _deliver(self, message: Message) -> None:
        src, dst, payload, _uid, dup = message
        try:
            link = self._links[src, dst]
        except KeyError:
            # First traffic on this pair since an invalidation (or, on a
            # shard, an inbound pair whose sender lives elsewhere).
            link = self._build_link(src, dst)
        try:
            cells = link.kind_cells[payload.__class__]
        except KeyError:
            cells = link.kind_cells[payload.__class__] = _KindCells(
                self._metrics, payload.__class__, src, dst
            )
        # Crashes/partitions that arose while the message was in flight also
        # destroy it -- the destination never processes it.
        if link.blocked is not None:
            self._drop(cells, dup, link.blocked)
            return
        if dup:
            cells.dup_delivered.add()
        else:
            cells.count_delivered()
        link.deliver(message)
