"""Sharded parallel simulation engine with conservative lookahead.

The sequential :class:`~repro.sim.simulation.Simulation` executes every
site's events on one scheduler.  This module partitions the sites across N
worker processes, each running its own :class:`~repro.sim.scheduler.Scheduler`
over its shard's events, and synchronizes the shards with conservative
lookahead in the Chandy--Misra--Bryant style.  Window boundaries only decide
how often the coordinator synchronizes, never what executes, so a sharded
run is byte-identical to the sequential run of the same seed -- the
sequential engine is the reference the equivalence tests compare against.

**Window planning.**  Every window reply advertises the shard's *earliest
output time* (EOT) -- the earliest instant at which anything the shard still
holds could put a message on another shard's doorstep -- and the coordinator
plans ``safe = min(advertised EOTs, pending-message cascades, target)``.  A
shard's EOT is the minimum over its live events of ``event time + shard
lookahead``, where the shard lookahead is the tightest per-pair latency
floor over its outbound links (:meth:`Network.min_cross_latency`, falling
back to ``NetworkConfig.min_latency``), and provably-quiet GC-tick chains
are looked *through* (:meth:`Site.quiet_gc_ticks`): a tick that will skip --
and a forced full trace that will recompute the cached result and ship
nothing -- contributes its first possibly-sending successor instead of
itself.  Quiet stretches thus collapse into one window (a *quiescence
jump* goes straight to the target).

The coordinator runs in lock-step: plan a window, send every shard its
command, absorb every reply.  At most one window is ever in flight, so every
window is planned on the EOTs the shards advertised at the end of the
previous one.  Every shard fires its events *strictly below* ``safe``
(:meth:`Scheduler.run_until_before`).

Safety: any message produced during the window traces back to some event
that was live when the EOTs were computed -- directly, through a cascade of
derived events (each no earlier than its parent), or through a quiet-tick
chain perturbed by such an event -- and therefore delivers at or after that
event's EOT term, hence at or after ``safe``.  Cross-shard messages not yet
handed to their destination shard contribute ``deliver_at +
destination-shard lookahead`` terms for the cascades their delivery can
start.  The invariant is asserted at runtime on every cross-shard bucket: its
earliest message must deliver at or after the window bound in force when
it was sent (:meth:`ParallelSimulation._absorb`).  No shard can ever receive a
message in its past, hence no rollback is needed.  Progress: every EOT term
exceeds the horizon by at least the smallest shard lookahead, so each round
strictly advances; this requires ``min_latency > 0`` (with zero lookahead no
window has positive width, and the engine falls back to the sequential path
with a warning).

Determinism: the network's per-ordered-pair RNG streams (one discipline on
every engine, :mod:`repro.net.network`) make every latency/loss draw depend
only on the *sender's own* send order; per-site event streams are already
deterministic; and cross-shard messages are injected into the receiving
shard in ``(deliver_at, source site, sender sequence)`` order.

**The data path** is one protocol, in the spirit of the paper's
small-messages discipline:

- *Persistent pool* (:class:`ShardWorkerPool`): workers fork once, after
  the simulation is fully constructed -- the child inherits the whole
  object graph by copy-on-write, prunes its scheduler to its shard
  (:meth:`Scheduler.retain_sites`), and puts its network into shard mode
  (:meth:`Network.attach_shard`).  From then on everything travels over
  long-lived duplex pipes, and every byte that crosses one is counted
  (:meth:`ParallelSimulation.coordination_stats`).
- *Buckets*: a worker groups the cross-shard messages of one command by
  destination worker and pickles each group once, as a list of
  ``(deliver_at, Message)`` pairs.  Nothing between the sender and the
  destination shard opens a bucket.
- *One carrier, one command shape*: every cross-shard message rides the
  pipes.  ``window`` and ``align`` are ``(op, time, buckets)`` -- the
  buckets addressed to this shard, due or not -- and every reply is
  ``("ok", payload, buckets, next_time, eot, fired)`` (or ``("error",
  traceback)``): each outgoing bucket as ``(worker index, min deliver_at,
  record count, bytes)``, then the shard's frontier, its EOT and the events
  fired.  The coordinator asserts the window floor on each bucket's minimum
  (:meth:`ParallelSimulation._absorb`, the one place) and forwards the
  bytes in the destination's next command.  The worker *stashes* what it
  receives, injects the messages due before the window bound in
  ``(deliver_at, source site, sender sequence)`` order, and runs; its
  frontier and EOT fold in the stash.
- *Plain queries*: ``snapshot()`` (so ``graph_snapshot`` and ``to_dot``),
  ``merged_metrics()``, ``trace_outcomes`` and ``audit_state()`` after
  the fork are one broadcast each, merged coordinator-side into fresh
  objects.  The audit adds the coordinator's ``_pending`` buckets to each
  shard's sites, queue and stash, so it holds every undelivered message
  once; the oracle, ``check_invariants()``, ``total_objects()`` and
  ``all_object_ids()`` all read it.
"""

from __future__ import annotations

import math
import multiprocessing
import pickle
import traceback
import warnings
from collections import Counter
from typing import Any, Dict, List, Optional, Sequence, Set, Tuple

from ..config import SimulationConfig
from ..errors import SimulationError
from ..ids import SiteId
from ..metrics import MetricsRecorder
from ..net.latency import LatencyModel
from ..net.message import Message
from .simulation import AuditState, Simulation

_INF = float("inf")

#: (deliver_at, message) pairs as prepared sender-side by Network.send.
RoutedMessage = Tuple[float, Message]

#: One reply's messages for one destination worker: (worker index, min
#: deliver_at, record count, pickled list of RoutedMessage pairs).
Bucket = Tuple[int, float, int, bytes]


def assign_shards(site_ids, workers: int) -> List[List[SiteId]]:
    """Partition ``site_ids`` into at most ``workers`` non-empty shards.

    Slices the sorted site list into balanced contiguous runs (sizes differ
    by at most one; neighbours stay together, which minimizes cross-shard
    traffic for ring-like topologies).
    """
    ordered = sorted(site_ids)
    workers = max(1, min(workers, len(ordered)))
    base, extra = divmod(len(ordered), workers)
    shards, start = [], 0
    for index in range(workers):
        size = base + (1 if index < extra else 0)
        shards.append(ordered[start : start + size])
        start += size
    return [shard for shard in shards if shard]


# ---------------------------------------------------------------------------
# Counted duplex channel (both sides of every worker pipe)
# ---------------------------------------------------------------------------


class _Channel:
    """A Connection wrapper that pickles explicitly and counts bytes.

    Explicit ``send_bytes(pickle.dumps(...))`` instead of ``Connection.send``
    so both endpoints know exactly how many bytes cross the process boundary
    -- the ledger's ``sim.parallel.pipe_bytes`` row comes from these counters.
    """

    __slots__ = ("conn", "bytes_sent", "bytes_recv", "messages_sent")

    def __init__(self, conn):
        self.conn = conn
        self.bytes_sent = 0
        self.bytes_recv = 0
        self.messages_sent = 0

    def send(self, obj) -> None:
        data = pickle.dumps(obj, protocol=pickle.HIGHEST_PROTOCOL)
        self.conn.send_bytes(data)
        self.bytes_sent += len(data)
        self.messages_sent += 1

    def recv(self):
        data = self.conn.recv_bytes()
        self.bytes_recv += len(data)
        return pickle.loads(data)

    def close(self) -> None:
        self.conn.close()


# ---------------------------------------------------------------------------
# Worker side
# ---------------------------------------------------------------------------


class _Stop(Exception):
    """Internal: the worker was asked to shut down."""


def _pack_buckets(
    routed: Sequence[RoutedMessage], site_to_worker: Dict[SiteId, int]
) -> List[Bucket]:
    """Group routed messages by destination worker, one pickled bucket each."""
    groups: Dict[int, List[RoutedMessage]] = {}
    for entry in routed:
        groups.setdefault(site_to_worker[entry[1].dst], []).append(entry)
    return [
        (
            dst,
            min(entry[0] for entry in group),
            len(group),
            pickle.dumps(group, protocol=pickle.HIGHEST_PROTOCOL),
        )
        for dst, group in groups.items()
    ]


def _load_bucket(bucket: bytes) -> List[RoutedMessage]:
    """Unpickle one bucket.  It comes from another process, so whatever is
    wrong with it surfaces as :class:`SimulationError`."""
    try:
        return pickle.loads(bucket)
    except Exception as exc:
        raise SimulationError(
            f"malformed cross-shard bucket of {len(bucket)} bytes: {exc}"
        ) from exc


def _due_order(entry: RoutedMessage) -> Tuple[float, SiteId, int]:
    """``(deliver_at, source site, sender sequence)``: the sequential
    engine's tie-break, and unique (a site sends from one process only)."""
    message = entry[1]
    return entry[0], message.src, message.uid


class _RecordStash:
    """Worker-side holding area for routed-in messages that are not due yet.

    The coordinator ships a shard its buckets as soon as it has them, due
    or not; each is unpickled on arrival and its messages wait here.  Due
    extraction sorts by ``(deliver_at, source site, sender sequence)``, so
    the injection order is the sequential engine's tie-break however the
    messages were bucketed and whatever order the buckets arrived in.
    """

    __slots__ = ("_stash",)

    def __init__(self):
        #: (deliver_at, message) pairs, unordered until due.
        self._stash: List[RoutedMessage] = []

    def stash_buckets(self, buckets: Sequence[bytes]) -> None:
        """Stash the messages of one command's buckets.

        No floor check here: every bucket already passed the coordinator's
        ``_absorb`` assertion before being routed back out.
        """
        for bucket in buckets:
            self._stash.extend(_load_bucket(bucket))

    def stash_min(self) -> float:
        """Earliest stashed delivery (inf when empty) -- folded into the
        reply's frontier and EOT so the planner sees stashed work."""
        return min((entry[0] for entry in self._stash), default=_INF)

    def messages(self) -> List[Message]:
        """Every stashed message (for the audit)."""
        return [message for _at, message in self._stash]

    def take_due(self, bound: float) -> List[RoutedMessage]:
        """Extract and order every stashed message due before ``bound``."""
        if not self._stash:
            return []
        due: List[RoutedMessage] = []
        rest: List[RoutedMessage] = []
        for entry in self._stash:
            (due if entry[0] < bound else rest).append(entry)
        self._stash = rest
        due.sort(key=_due_order)
        return due


def _shard_eot(sim: Simulation, lookahead: float) -> float:
    """Earliest instant this shard could put a message on another shard.

    The minimum over live events of ``adjusted time + lookahead``, where
    ``lookahead`` is the shard's tightest outbound latency floor.  Sound for
    everything a window can make the shard do: an executed event sends no
    earlier than its own timestamp; derived events (retries, trace frames,
    delivery cascades) never precede the event that scheduled them; and a
    routed-in message perturbing local state is itself covered by the
    coordinator's pending-message terms.

    GC-tick events are adjusted forward across their provably-quiet
    successors (:meth:`Site.quiet_gc_ticks`): ``k`` quiet ticks push the
    first possibly-sending tick of the chain to at least ``k`` full periods
    later (jitter only adds).  A local event that would invalidate the
    prediction executes before the tick it perturbs, so the perturbed tick
    fires no earlier than that event -- whose own EOT term already bounds
    the window.
    """
    period = sim.config.gc.local_trace_period
    sites = sim.sites
    eot = _INF
    for time, label, site_id in sim.scheduler.live_events():
        if (
            site_id is not None
            and label is not None
            and label.startswith("gc-tick:")
        ):
            time += sites[site_id].quiet_gc_ticks() * period
        if time + lookahead < eot:
            eot = time + lookahead
    return eot


def _schedule_incoming(sim: Simulation, incoming: List[RoutedMessage]) -> None:
    """Schedule routed-in messages at their sender-fixed delivery times.

    ``incoming`` comes sorted by (deliver_at, source site, sender sequence)
    (:meth:`_RecordStash.take_due`), so the scheduler's FIFO-within-timestamp
    tie-breaking reproduces the deterministic order regardless of which
    shard sent what.
    """
    deliver = sim.network.deliver_remote
    schedule_at = sim.scheduler.schedule_at
    for deliver_at, message in incoming:
        schedule_at(
            deliver_at,
            deliver,
            label="deliver:" + message.kind,
            site=message.dst,
            arg=message,
        )


def _execute(
    sim: Simulation, shard: Set[SiteId], stash: _RecordStash, command: tuple
):
    """Run one coordinator command that does not advance time; return its
    payload."""
    op = command[0]
    if op == "site_call":
        _, site_id, method, args, kwargs = command
        return getattr(sim.site(site_id), method)(*args, **kwargs)
    if op == "crash":
        site_id = command[1]
        if site_id in shard:
            sim.site(site_id).crash()
        else:
            # Remote crash: this shard only needs the network view so its
            # sends to (and in-flight deliveries from) the site are lost,
            # exactly as the sequential engine's shared network would do.
            sim.network.crash(site_id)
        return None
    if op == "recover":
        site_id = command[1]
        if site_id in shard:
            sim.site(site_id).recover()
        else:
            sim.network.recover(site_id)
        return None
    if op == "partition":
        sim.network.partition(*command[1])
        return None
    if op == "heal_partition":
        sim.network.heal_partition()
        return None
    if op == "quiesce":
        for site_id in shard:
            sim.sites[site_id].stop_auto_gc()
        return None
    if op == "snapshot":
        from ..analysis.export import site_snapshot

        return {site_id: site_snapshot(sim.sites[site_id]) for site_id in shard}
    if op == "metrics":
        return sim.metrics._counters
    if op == "outcomes":
        return list(sim._trace_outcomes)
    if op == "audit":
        sites = {site_id: sim.sites[site_id].audit() for site_id in shard}
        return sites, sim.scheduler.queued_deliveries() + stash.messages()
    if op == "stop":
        raise _Stop
    raise SimulationError(f"unknown worker command {op!r}")


def _worker_main(
    conn,
    shard_sites: List[SiteId],
    sim: Simulation,
    site_to_worker: Dict[SiteId, int],
) -> None:
    """Entry point of a forked shard worker.

    The child inherited the fully built simulation by fork; it prunes the
    scheduler to its shard, puts the network into shard mode, and then
    obeys coordinator commands.  Every reply is a uniform
    ``("ok", payload, outgoing, next_time, eot, fired)`` tuple (or
    ``("error", traceback_text)``): ``outgoing`` holds the buckets the
    command sent to other shards, followed by the shard's new frontier,
    its earliest output time, and the events fired, so the coordinator
    always learns the shard's state and pending cross-shard messages in one
    exchange.

    Window/align commands are ``(op, time, buckets)``: the worker stashes
    the messages and injects what is due.  The reply's frontier and EOT
    fold in the stash of received-but-not-due messages, so the
    coordinator's planner accounts for work it has already handed over.
    """
    shard = set(shard_sites)
    channel = _Channel(conn)
    outbox: List[RoutedMessage] = []
    stash = _RecordStash()
    try:
        sim.scheduler.retain_sites(shard)
        sim.network.attach_shard(shard, outbox)
        lookahead = sim.network.min_cross_latency(shard)
        if lookahead is None:
            lookahead = sim.config.network.min_latency
    except Exception:
        channel.send(("error", traceback.format_exc()))
        channel.close()
        return

    def outgoing_buckets() -> List[Bucket]:
        buckets = _pack_buckets(outbox, site_to_worker)
        del outbox[:]
        return buckets

    def reply(payload, fired: int) -> tuple:
        next_time = sim.scheduler.peek_time()
        eot = _shard_eot(sim, lookahead)
        stash_min = stash.stash_min()
        if stash_min < next_time:
            next_time = stash_min
        if stash_min + lookahead < eot:
            eot = stash_min + lookahead
        return ("ok", payload, outgoing_buckets(), next_time, eot, fired)

    def run_window(op, time, buckets) -> int:
        """Stash -> take due -> run: the one window/align protocol."""
        stash.stash_buckets(buckets)
        if op == "align":
            _schedule_incoming(sim, stash.take_due(_INF))
            sim.scheduler.advance_clock(time)
            return 0
        _schedule_incoming(sim, stash.take_due(time))
        return sim.scheduler.run_until_before(time)

    channel.send(reply(None, 0))
    while True:
        try:
            command = channel.recv()
        except EOFError:
            break
        try:
            if command[0] in ("window", "align"):
                payload, fired = None, run_window(*command)
            else:
                payload, fired = _execute(sim, shard, stash, command), 0
        except _Stop:
            channel.send(("ok", None, outgoing_buckets(), _INF, _INF, 0))
            break
        except Exception:
            del outbox[:]
            channel.send(("error", traceback.format_exc()))
            continue
        channel.send(reply(payload, fired))
    channel.close()


# ---------------------------------------------------------------------------
# Coordinator side
# ---------------------------------------------------------------------------


class _WorkerHandle:
    """Coordinator-side bookkeeping for one shard worker."""

    __slots__ = (
        "process",
        "channel",
        "next_time",
        "eot",
    )

    def __init__(self, process, channel: _Channel):
        self.process = process
        self.channel = channel
        self.next_time = _INF
        #: Last advertised earliest-output-time.
        self.eot = _INF


class ShardWorkerPool:
    """The persistent fork-once worker pool behind :class:`ParallelSimulation`.

    Owns the processes and counted channels; fork happens exactly once, in
    :meth:`start`, and afterwards every window/drain/merge exchange travels
    over the same long-lived pipes.  A worker death mid-exchange surfaces as
    a prompt :class:`SimulationError` (the dead pipe raises ``EOFError``
    rather than hanging), after which the whole pool is reaped.
    """

    def __init__(self):
        self.workers: List[_WorkerHandle] = []
        self._stopped = False

    def start(
        self,
        shards: Sequence[Sequence[SiteId]],
        sim: Simulation,
        site_to_worker: Dict[SiteId, int],
    ) -> None:
        context = multiprocessing.get_context("fork")
        for shard in shards:
            parent_conn, child_conn = context.Pipe()
            process = context.Process(
                target=_worker_main,
                args=(child_conn, list(shard), sim, site_to_worker),
                daemon=True,
            )
            process.start()
            child_conn.close()
            self.workers.append(_WorkerHandle(process, _Channel(parent_conn)))

    def __iter__(self):
        return iter(self.workers)

    def send(self, worker: _WorkerHandle, command: tuple) -> None:
        try:
            worker.channel.send(command)
        except (BrokenPipeError, ConnectionResetError, OSError):
            self._raise_dead(worker)

    def recv(self, worker: _WorkerHandle):
        try:
            return worker.channel.recv()
        except (EOFError, ConnectionResetError, OSError):
            self._raise_dead(worker)

    def _raise_dead(self, worker: _WorkerHandle) -> None:
        """A pipe failed: reap everything and raise without hanging."""
        worker.process.join(timeout=1)
        exitcode = worker.process.exitcode
        index = self.workers.index(worker)
        self.reap()
        raise SimulationError(
            f"shard worker {index} (pid {worker.process.pid}) died "
            f"mid-command (exit code {exitcode}); parallel simulation "
            "is unrecoverable -- all workers stopped"
        )

    def reap(self) -> None:
        """Terminate and join every worker unconditionally."""
        self._stopped = True
        for worker in self.workers:
            worker.channel.close()
            if worker.process.is_alive():
                worker.process.terminate()
        for worker in self.workers:
            worker.process.join(timeout=5)

    def stop(self) -> None:
        """Orderly shutdown: ask nicely, then reap stragglers."""
        if self._stopped:
            return
        self._stopped = True
        for worker in self.workers:
            try:
                worker.channel.send(("stop",))
            except (BrokenPipeError, OSError):
                pass
        for worker in self.workers:
            try:
                worker.channel.recv()
            except (EOFError, OSError):
                pass
            worker.channel.close()
            worker.process.join(timeout=5)
            if worker.process.is_alive():  # pragma: no cover - defensive
                worker.process.terminate()
                worker.process.join(timeout=5)

    @property
    def bytes_sent(self) -> int:
        return sum(worker.channel.bytes_sent for worker in self.workers)

    @property
    def bytes_recv(self) -> int:
        return sum(worker.channel.bytes_recv for worker in self.workers)

    @property
    def commands_sent(self) -> int:
        return sum(worker.channel.messages_sent for worker in self.workers)


_PROXY_METHODS = frozenset(
    {
        "run_local_trace",
        "stop_auto_gc",
        "schedule_next_trace",
        "check_backtrace_triggers",
        "mutator_add_ref",
        "mutator_remove_ref",
        "mutator_send_ref",
        "mutator_hop",
        "take_insert_custody",
        "pin_variable",
        "unpin_variable",
        "stats",
        "check_flat_mirror",
    }
)


class SiteProxy:
    """Post-fork stand-in for a :class:`Site` living in a worker process.

    Forwards the mutator-facing and GC-control API as remote calls; direct
    state access (``heap``, ``inrefs``, ``outrefs``) is not available across
    the process boundary -- use :meth:`Simulation.snapshot` or
    :meth:`Simulation.audit_state`, which read the workers' live copies.
    """

    __slots__ = ("_sim", "site_id")

    def __init__(self, sim: "ParallelSimulation", site_id: SiteId):
        object.__setattr__(self, "_sim", sim)
        object.__setattr__(self, "site_id", site_id)

    @property
    def crashed(self) -> bool:
        return self.site_id in self._sim._crashed_sites

    def crash(self) -> None:
        """Crash the site; every shard learns, so sends to it are lost."""
        self._sim._crashed_sites.add(self.site_id)
        self._sim._broadcast(("crash", self.site_id))

    def recover(self) -> None:
        self._sim._crashed_sites.discard(self.site_id)
        self._sim._broadcast(("recover", self.site_id))

    def __getattr__(self, name: str):
        if name in _PROXY_METHODS:
            sim, site_id = self._sim, self.site_id

            def call(*args, **kwargs):
                return sim._site_call(site_id, name, *args, **kwargs)

            call.__name__ = name
            return call
        raise AttributeError(
            f"site {self.site_id!r} runs in a worker process; {name!r} is "
            "not forwarded (use sim.snapshot() or sim.audit_state() for state)"
        )

    def __repr__(self) -> str:
        return f"SiteProxy({self.site_id!r})"


class ParallelSimulation(Simulation):
    """Drop-in :class:`Simulation` that executes site shards in parallel.

    Construction, topology building, and everything before the first
    ``run_*`` call are the sequential engine's own code.  The first time
    simulated time advances, the coordinator forks ``config.parallel_workers``
    shard workers -- once -- and from then on drives them over the persistent
    pool with conservative-lookahead windows.  With ``parallel_workers == 1`` (or when
    parallelism is impossible: zero ``min_latency``, no fork support, fewer
    than two sites) every call takes the inherited sequential path unchanged.

    Usually constructed through :meth:`Simulation.create`, which picks the
    engine from ``parallel_workers`` and keeps call sites engine-agnostic.
    """

    def __init__(
        self,
        config: Optional[SimulationConfig] = None,
        latency_model: Optional[LatencyModel] = None,
        fault_plan=None,
    ):
        config = config or SimulationConfig()
        requested = config.parallel_workers
        fallback = None
        if requested > 1:
            if config.network.min_latency <= 0:
                fallback = (
                    "network.min_latency must be > 0 (the conservative "
                    "lookahead bound); running sequentially"
                )
            elif "fork" not in multiprocessing.get_all_start_methods():
                fallback = "platform has no fork start method; running sequentially"
        self._parallel = requested > 1 and fallback is None
        if fallback is not None:
            warnings.warn(
                f"parallel_workers={requested}: {fallback}",
                RuntimeWarning,
                stacklevel=2,
            )
        super().__init__(config, latency_model=latency_model, fault_plan=fault_plan)
        self._forked = False
        self._closed = False
        self._pool = ShardWorkerPool()
        #: Cross-shard buckets awaiting their destination's next command:
        #: (min deliver_at, destination worker index, bucket bytes).
        self._pending: List[Tuple[float, int, bytes]] = []
        self._site_to_worker: Dict[SiteId, int] = {}
        self._crashed_sites: Set[SiteId] = set()
        self._proxies: Dict[SiteId, SiteProxy] = {}
        self._fork_counters: Counter = Counter()
        self._fork_outcome_count = 0
        #: The global lookahead floor; every shard lookahead is at least it.
        self._lookahead = config.network.min_latency
        #: Per-worker outbound latency floor (pending-message cascade terms).
        self._shard_lookahead: List[float] = []
        #: Latest dispatched window bound; every routed message absorbed from
        #: a window/align reply must deliver at or after it.
        self._floor: Optional[float] = None
        self._stats = Counter()

    # -- lifecycle ----------------------------------------------------------

    @property
    def parallel_active(self) -> bool:
        """True when runs are (or will be) executed by shard workers."""
        return self._parallel

    def _ensure_forked(self) -> None:
        if self._forked or not self._parallel:
            if self._closed:
                raise SimulationError("parallel simulation has been closed")
            return
        shards = assign_shards(self.sites, self.config.parallel_workers)
        if len(shards) < 2:
            warnings.warn(
                "parallel run degenerates to one shard "
                f"({len(self.sites)} sites); running sequentially",
                RuntimeWarning,
                stacklevel=3,
            )
            self._parallel = False
            return
        self._fork_counters = Counter(self.metrics._counters)
        self._fork_outcome_count = len(self._trace_outcomes)
        self._crashed_sites = {
            site_id for site_id, site in self.sites.items() if site.crashed
        }
        self._shard_lookahead = []
        for index, shard in enumerate(shards):
            bound = self.network.min_cross_latency(set(shard))
            self._shard_lookahead.append(self._lookahead if bound is None else bound)
            for site_id in shard:
                self._site_to_worker[site_id] = index
        self._pool.start(shards, self, self._site_to_worker)
        # Flag flips only after every fork: children must see the sequential
        # view of `self` so their internal calls take direct paths.
        self._forked = True
        self.network.mark_forked_away()
        try:
            for worker in self._pool:
                self._absorb(worker, self._pool.recv(worker))
        except SimulationError:  # a worker failed its bring-up and has exited
            self._abandon()
            raise

    def close(self) -> None:
        """Stop the shard workers.  Idempotent."""
        if self._forked and not self._closed:
            self._closed = True
            self._pool.stop()

    def _abandon(self) -> None:
        """Reap the pool and close, after a window or align failed.

        Some shards ran the window and some did not, so they are no longer
        at a common time and nothing a later command returned could be
        trusted.  Terminating the workers also discards whatever replies
        were still in flight.
        """
        self._closed = True
        self._pool.reap()

    def __del__(self):  # pragma: no cover - interpreter-shutdown dependent
        try:
            self.close()
        except Exception:
            pass

    # -- coordinator plumbing ------------------------------------------------

    def _absorb(
        self, worker: _WorkerHandle, reply: tuple, window_reply: bool = False
    ):
        """Fold one worker reply into coordinator state; return its payload.

        ``window_reply`` marks the reply as answering a window/align
        command, which puts the latest dispatched window bound in force as
        the *floor*: the conservative-lookahead safety argument guarantees
        every cross-shard message sent in a window delivers at or after it,
        and the invariant is checked here, on each bucket's earliest
        message, rather than trusted to the planner.  Buckets are queued
        for their destination unopened.
        """
        if reply[0] == "error":
            raise SimulationError(f"shard worker failed:\n{reply[1]}")
        _, payload, outgoing, next_time, eot, fired = reply
        floor = self._floor if window_reply else None
        for dst, first_at, count, bucket in outgoing:
            if floor is not None and first_at < floor:
                raise SimulationError(
                    "window-safety invariant violated: routed message "
                    f"delivers at {first_at} before the dispatched "
                    f"window bound {floor}"
                )
            self._stats["cross_shard_messages"] += count
            self._pending.append((first_at, dst, bucket))
        worker.next_time = next_time
        worker.eot = eot
        return payload, fired

    def _broadcast(self, command: tuple) -> Tuple[List[Any], int]:
        """Send ``command`` to every worker; gather payloads in shard order.

        Every reply is received -- and every good one absorbed -- before a
        worker's error is raised: a reply left unread would answer the next
        command instead of its own.
        """
        if self._closed:
            raise SimulationError("parallel simulation has been closed")
        self._stats["broadcasts"] += 1
        pool = self._pool
        for worker in pool:
            pool.send(worker, command)
        replies = [pool.recv(worker) for worker in pool]
        payloads: List[Any] = []
        total_fired = 0
        failure = None
        for worker, reply in zip(pool, replies):
            if reply[0] == "error":
                failure = failure or reply[1]
                continue
            payload, fired = self._absorb(worker, reply)
            payloads.append(payload)
            total_fired += fired
        if failure is not None:
            raise SimulationError(f"shard worker failed:\n{failure}")
        return payloads, total_fired

    def _site_call(self, site_id: SiteId, method: str, *args, **kwargs):
        if self._closed:
            raise SimulationError("parallel simulation has been closed")
        self._stats["site_calls"] += 1
        pool = self._pool
        worker = pool.workers[self._site_to_worker[site_id]]
        pool.send(worker, ("site_call", site_id, method, args, kwargs))
        payload, _ = self._absorb(worker, pool.recv(worker))
        return payload

    def _take_pending(self, index: int) -> List[bytes]:
        """Remove the pending buckets addressed to worker ``index``.

        Due or not: the worker stashes their messages and orders them by
        (deliver_at, source site, sender sequence) when they fall due, so
        the buckets are forwarded here without opening or sorting them.
        """
        buckets: List[bytes] = []
        rest: List[Tuple[float, int, bytes]] = []
        for item in self._pending:
            if item[1] == index:
                buckets.append(item[2])
            else:
                rest.append(item)
        self._pending = rest
        return buckets

    def _effective_horizon(self) -> float:
        """Earliest unexecuted work anywhere: shards and pending buckets."""
        horizon = min((worker.next_time for worker in self._pool), default=_INF)
        if self._pending:
            horizon = min(horizon, min(item[0] for item in self._pending))
        return horizon

    def _plan_bound(self, target_excl: float) -> Optional[float]:
        """Exclusive bound of the next window, or None when the target is hit.

        The minimum of every shard's advertised EOT and, for each
        cross-shard message its destination has not taken yet,
        ``deliver_at + destination-shard lookahead`` (the
        earliest a cascade started by its delivery could leave that shard),
        clipped to the target.  Bounds past ``horizon + min_latency`` -- all
        a planner without advertised EOTs could promise -- are counted as
        ``eot_jumps`` (or ``quiescence_jumps`` when the whole remaining span
        collapses into one window).
        """
        horizon = self._effective_horizon()
        if horizon >= target_excl:
            return None
        bound = target_excl
        for worker in self._pool:
            if worker.eot < bound:
                bound = worker.eot
        shard_lookahead = self._shard_lookahead
        for deliver_at, dst, _bucket in self._pending:
            term = deliver_at + shard_lookahead[dst]
            if term < bound:
                bound = term
        fixed = min(horizon + self._lookahead, target_excl)
        if bound >= target_excl:
            bound = target_excl
            if bound > fixed:
                self._stats["quiescence_jumps"] += 1
        elif bound > fixed:
            self._stats["eot_jumps"] += 1
        if bound <= horizon:  # lookahead underflowed against a large timestamp
            bound = min(math.nextafter(horizon, _INF), target_excl)
        return bound

    def _exchange(self, op: str, time: float) -> int:
        """One lock-step round: send every worker its window/align command,
        then absorb every reply in worker order; return the events fired.

        The command ships the buckets addressed to the shard, due or not --
        the worker's stash holds them until due.  A command larger than the OS
        pipe buffer blocks its send until the worker reads it, and it will:
        every worker is parked in ``recv`` while the commands go out, and a
        worker blocked writing a large reply waits only for the coordinator
        to read it, which it does once every command is sent.
        """
        pool = self._pool
        for index, worker in enumerate(pool):
            pool.send(worker, (op, time, self._take_pending(index)))
        fired = 0
        for worker in pool:
            fired += self._absorb(worker, pool.recv(worker), window_reply=True)[1]
        return fired

    def _advance(self, target: float) -> int:
        """Advance every shard to exactly ``target`` via safe-time windows.

        Plan, exchange, repeat: each window is planned on the replies of the
        one before, and replies are absorbed in worker order, so window
        bounds -- and hence all coordination counters -- are deterministic,
        never wall-clock-raced.

        A worker error or a failed safety check in here is final
        (:meth:`_abandon`): the engine closes before the error propagates.
        """
        try:
            total_fired = self._run_windows(target)
        except SimulationError:
            self._abandon()
            raise
        self.scheduler.advance_clock(target)
        return total_fired

    def _run_windows(self, target: float) -> int:
        target_excl = math.nextafter(target, _INF)
        total_fired = 0
        while True:
            bound = self._plan_bound(target_excl)
            if bound is None:
                break
            self._stats["windows"] += 1
            self._floor = bound
            total_fired += self._exchange("window", bound)
        # Align: park messages due beyond the target in their receiving
        # shards' queues and move every clock (ours included) to the target.
        self._stats["aligns"] += 1
        self._exchange("align", target)
        return total_fired

    def coordination_stats(self) -> Dict[str, int]:
        """Counters of coordinator<->worker traffic since the fork.

        ``windows``/``aligns`` count synchronization rounds, of which
        ``eot_jumps``/``quiescence_jumps`` went past ``horizon +
        min_latency`` thanks to advertised earliest-output-times;
        ``bytes_sent``/``bytes_recv`` are
        coordinator-side pipe totals (every pickled byte).
        ``cross_shard_messages`` messages crossed the pipes in buckets.
        """
        stats = dict(self._stats)
        for key in (
            "windows",
            "aligns",
            "broadcasts",
            "site_calls",
            "eot_jumps",
            "quiescence_jumps",
            "cross_shard_messages",
        ):
            stats.setdefault(key, 0)
        stats["bytes_sent"] = self._pool.bytes_sent
        stats["bytes_recv"] = self._pool.bytes_recv
        stats["commands_sent"] = self._pool.commands_sent
        # benchmarks/ledger/metrics.py indexes these four keys of the removed
        # second carrier; zeros until a benchmark PR retires its rows.
        stats.update(ring_messages=0, ring_bytes=0, ring_spills=0, arena_bytes=0)
        return stats

    # -- time control (Simulation API) ---------------------------------------

    def run_until(self, time: float, max_events: Optional[int] = None) -> int:
        if not self._parallel:
            return super().run_until(time, max_events=max_events)
        self._ensure_forked()
        if not self._parallel:  # degraded during fork (single shard)
            return super().run_until(time, max_events=max_events)
        if max_events is not None:
            raise SimulationError(
                "max_events is not supported by the parallel engine"
            )
        if time < self.scheduler.now:
            return 0
        return self._advance(time)

    def step(self) -> bool:
        if not self._parallel:
            return super().step()
        raise SimulationError(
            "step() is not available in parallel mode: the engine advances "
            "in safe-time windows, not single global events"
        )

    def quiesce_auto_gc(self) -> None:
        if not self._forked:
            return super().quiesce_auto_gc()
        self._broadcast(("quiesce",))

    def run_gc_round(self, settle_time: float = 50.0) -> None:
        if not self._parallel:
            return super().run_gc_round(settle_time=settle_time)
        self._ensure_forked()
        if not self._parallel:
            return super().run_gc_round(settle_time=settle_time)
        # Mirrors the sequential implementation exactly: one trace per
        # non-crashed site in sorted order, message drain between sites.
        for site_id in sorted(self.sites):
            if site_id not in self._crashed_sites:
                self._site_call(site_id, "run_local_trace")
            self.run_for(settle_time)
        self.settle(settle_time)

    # -- construction / access ----------------------------------------------

    def add_site(self, site_id: SiteId, auto_gc: bool = True):
        if self._forked:
            raise SimulationError("cannot add sites after workers have forked")
        return super().add_site(site_id, auto_gc=auto_gc)

    def site(self, site_id: SiteId):
        if not self._forked:
            return super().site(site_id)
        if site_id not in self.sites:
            raise SimulationError(f"no such site: {site_id!r}")
        proxy = self._proxies.get(site_id)
        if proxy is None:
            proxy = self._proxies[site_id] = SiteProxy(self, site_id)
        return proxy

    def partition(self, *groups) -> None:
        if not self._forked:
            return super().partition(*groups)
        self._broadcast(("partition", groups))

    def heal_partition(self) -> None:
        if not self._forked:
            return super().heal_partition()
        self._broadcast(("heal_partition",))

    # -- merged state --------------------------------------------------------

    def snapshot(self) -> Dict[str, Any]:
        """The sequential engine's snapshot, merged from one broadcast:
        every shard answers with a fresh snapshot per site."""
        if not self._forked:
            return super().snapshot()
        payloads, _ = self._broadcast(("snapshot",))
        sites: Dict[SiteId, Any] = {}
        for shard_snapshot in payloads:
            sites.update(shard_snapshot)
        return {
            "time": self.now,
            "sites": {site_id: sites[site_id] for site_id in sorted(sites)},
        }

    def merged_metrics(self) -> MetricsRecorder:
        """Counter totals across all workers (plus the pre-fork baseline).

        Every worker inherited the pre-fork counters at fork time, so the
        merge adds only each worker's post-fork deltas to the baseline once.
        Observations (value series) are not merged across processes.
        """
        if not self._forked:
            return self.metrics
        payloads, _ = self._broadcast(("metrics",))
        merged = Counter(self._fork_counters)
        fork_value = self._fork_counters.get
        for counters in payloads:
            for name, value in counters.items():
                merged[name] += value - fork_value(name, 0)
        recorder = MetricsRecorder()
        recorder._counters.update(
            {name: value for name, value in merged.items() if value}
        )
        return recorder

    @property
    def trace_outcomes(self) -> List[tuple]:
        if not self._forked:
            return list(self._trace_outcomes)
        payloads, _ = self._broadcast(("outcomes",))
        merged = list(self._trace_outcomes[: self._fork_outcome_count])
        fresh: List[tuple] = []
        for worker_outcomes in payloads:
            fresh.extend(worker_outcomes[self._fork_outcome_count :])
        # (time, initiator site, trace id) is unique per outcome and matches
        # the execution order a sequential run would have appended in.
        fresh.sort(key=lambda outcome: (outcome[0], outcome[1], outcome[2]))
        return merged + fresh

    def audit_state(self) -> AuditState:
        """The oracle's state read from the shards' live copies, in one
        broadcast, plus the cross-shard buckets still on the coordinator."""
        if not self._forked:
            return super().audit_state()
        payloads, _ = self._broadcast(("audit",))
        sites: Dict[SiteId, Any] = {}
        in_flight: List[Message] = []
        for shard_sites, shard_messages in payloads:
            sites.update(shard_sites)
            in_flight.extend(shard_messages)
        for _first_at, _dst, bucket in self._pending:
            in_flight.extend(message for _at, message in _load_bucket(bucket))
        return AuditState(dict(sorted(sites.items())), in_flight)
