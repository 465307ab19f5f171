"""Configuration dataclasses for the simulator and the collectors.

Configuration is split by subsystem so that benchmarks can sweep one knob
without restating the rest.  All classes validate on construction and are
immutable; derive variants with :func:`dataclasses.replace`.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

from .errors import ConfigError


@dataclass(frozen=True)
class NetworkConfig:
    """Parameters of the simulated message-passing network.

    The safety argument of the paper (section 6.4, relation R1) assumes
    in-order delivery between each pair of sites, which matches TCP-like
    transports; ``fifo_per_pair`` therefore defaults to True.  Setting it to
    False exercises the conservative timeout paths.
    """

    min_latency: float = 1.0
    max_latency: float = 5.0
    drop_probability: float = 0.0
    fifo_per_pair: bool = True
    # Draw latency/loss randomness from one RNG stream *per ordered site
    # pair* instead of the single shared "network" stream.  With the shared
    # stream the k-th draw depends on the global interleaving of all sends;
    # per-pair streams depend only on the sender's own send order, which is
    # what lets a sharded parallel run reproduce the sequential engine's
    # draws exactly.  The parallel engine forces this on; sequential runs
    # keep the historical shared stream unless asked (a twin run that wants
    # byte-equality with a parallel run must set it too).
    pair_rng_streams: bool = False

    def __post_init__(self) -> None:
        if self.min_latency < 0:
            raise ConfigError("min_latency must be >= 0")
        if self.max_latency < self.min_latency:
            raise ConfigError("max_latency must be >= min_latency")
        if not 0.0 <= self.drop_probability <= 1.0:
            raise ConfigError("drop_probability must be in [0, 1]")


@dataclass(frozen=True)
class GcConfig:
    """Parameters of local tracing, the distance heuristic, and back tracing.

    Attributes mirror the paper's symbols:

    - ``suspicion_threshold`` is T (section 3): inrefs with estimated distance
      greater than T are suspected; smaller distances are clean.
    - ``back_threshold`` is T2 (section 4.3), normally T + assumed_cycle_length;
      a back trace starts from a suspected outref once its distance exceeds
      its (per-ioref, growing) back threshold.
    - ``back_threshold_increment`` is the bump applied to an ioref's back
      threshold each time a back trace visits it, so live suspects stop
      generating traces.
    - ``local_trace_period`` is the simulated time between local traces at a
      site ("on the order of minutes" in the paper -- long relative to message
      latency).
    - ``local_trace_duration`` makes local traces non-atomic: messages arriving
      inside the window see the old copy of back information (section 6.2).
    - ``backtrace_timeout`` bounds waiting for a back call response or final
      outcome; expiry conservatively decides Live (section 4.6).
    - ``enable_backtracing`` / ``enable_transfer_barrier`` exist for
      counterfactual experiments: plain local tracing (Figure 1's uncollected
      cycle) and the unsafe no-barrier system (Figure 5's lost object).
      Production configurations leave both True.
    """

    # Distributed cycle-collection backend, by registry name
    # (:mod:`repro.core.collector`).  "backtrace" is the paper's back tracer;
    # "termination" the decentralized trial-deletion-with-termination-
    # detection rival used for differential testing; "null" plain local
    # tracing; "baseline.*" the sim-driven baseline schemes.  Validated
    # against the registry when the simulation (or site) is constructed --
    # the registry accepts runtime registrations, so the config layer only
    # checks the type here.
    collector: str = "backtrace"
    suspicion_threshold: int = 4
    assumed_cycle_length: int = 8
    back_threshold_increment: int = 4
    local_trace_period: float = 100.0
    local_trace_period_jitter: float = 10.0
    local_trace_duration: float = 0.0
    backtrace_timeout: float = 500.0
    backinfo_algorithm: str = "bottomup"
    enable_backtracing: bool = True
    enable_transfer_barrier: bool = True
    # Section 3 suggests tuning the suspicion threshold from trace outcomes
    # ("if too many suspects are found live, the threshold should be
    # increased"); repro.core.tuning implements that loop.
    enable_threshold_tuning: bool = False
    # Section 4.6: small control messages "can be piggybacked on other
    # messages" / "deferred and piggybacked".  When enabled, back-trace,
    # update, and insert traffic queues per destination for up to
    # ``defer_delay`` and ships bundled (repro.net.batching).
    defer_messages: bool = False
    defer_delay: float = 2.0
    # How many back traces one trigger check (after a local trace) may
    # start.  Starting one at a time realizes the paper's expectation that
    # "the first back trace started in a cycle is likely to visit all other
    # iorefs in the cycle before they cross T2": the first trace's visits
    # bump the other iorefs' back thresholds, suppressing duplicate traces
    # over the same cycle.  Disjoint cycles still each get a trace, since
    # every site checks after every local trace.
    max_traces_per_trigger_check: int = 1
    # Back-trace verdict caching (section 4.6 extension): a trace that
    # completes Live records, at every participant site, the per-entry epochs
    # of the iorefs it visited there.  A later trace (or trigger check)
    # arriving at such an ioref answers Live from the cache -- no frames, no
    # messages -- as long as every snapshotted epoch is unchanged and the
    # entry is younger than ``backtrace_cache_ttl_ticks`` local-trace
    # periods.  Any mutation, update message, or clean-rule event bumps an
    # epoch and thereby invalidates affected entries; only Live is ever
    # cached (Garbage verdicts are trace-relative and must not be shared).
    backtrace_cache: bool = True
    backtrace_cache_ttl_ticks: int = 3
    # Trace coalescing: when a trace reaches an ioref where an *older* trace
    # (by trace id) is actively expanding a frame, subscribe to that frame's
    # verdict instead of duplicating the downstream fan-out.  A Live verdict
    # is forwarded to subscribers; a Garbage verdict is trace-relative, so
    # subscribers re-run their own step instead.  The id ordering makes the
    # waits-for relation acyclic (no coalescing deadlock).
    backtrace_coalesce: bool = True
    # Batch the BackCalls (and immediate BackReplies) one engine activation
    # fans out to the same destination into one BackCallBatch/BackReplyBatch
    # physical message, riding the DeferringSender/Bundle path when message
    # deferral is also on.
    backtrace_batch_calls: bool = True
    # Incremental local traces: sites track mutation epochs on the heap and
    # the ioref tables, cache the last committed trace result, and skip (or
    # distance-only fast-path) a gc tick when nothing relevant changed since.
    # ``full_trace_every_n`` is the safety net: at most that many consecutive
    # ticks may resolve incrementally before a full trace (which also sends a
    # full update refresh) is forced, bounding the lifetime of any state a
    # missed invalidation could leave stale.
    incremental_traces: bool = True
    full_trace_every_n: int = 8
    # Every n-th local trace resends the distances of *all* outrefs instead
    # of only the changed ones.  Update messages are idempotent state
    # transfers (the fault-tolerant reference listing of [ML94]), so this
    # bounded refresh recovers from updates lost to crashes or partitions
    # without any acknowledgement machinery.
    full_update_period: int = 4
    # At-least-once update delivery (section 4.6 hardening): every update
    # message carries a per-(sender, target) sequence number and is
    # acknowledged; an update unacknowledged after
    # ``update_retransmit_timeout`` triggers a *fresh full* update (updates
    # are idempotent state transfers, so retransmitting current state both
    # replaces the lost delta and resynchronizes the target).  Retries back
    # off exponentially (x2 per consecutive failure, capped at 8x) and give
    # up after ``update_retransmit_limit`` consecutive failures -- the
    # periodic full refresh remains the backstop.  Receivers suppress
    # duplicate deliveries by sequence number either way.
    reliable_updates: bool = True
    update_retransmit_timeout: float = 40.0
    update_retransmit_limit: int = 5
    # Delta-encoded updates: after a trace, ship only the outref adds,
    # removals, and distance changes since the last update to each peer
    # (:class:`repro.gc.update.UpdateDeltaPayload`) instead of re-listing
    # everything.  Deltas ride the reliable-update channel's per-(sender,
    # dst) sequence numbers; a receiver applies them strictly in order and
    # answers a gap with a refresh request, which the sender repairs with a
    # full state transfer.  Periodic full updates (every
    # ``full_update_period``-th full trace) re-anchor peers regardless.
    # Requires ``reliable_updates``; without it the site warns once and
    # falls back to the legacy full-snapshot protocol.
    delta_updates: bool = True
    # Flat-graph trace kernel: the heap maintains a dense integer-index
    # mirror of the local object graph (interned ids, append-only adjacency
    # arrays with a free-list) and the clean phase runs over int arrays with
    # a reusable bytearray mark bitmap instead of per-trace ObjectId sets.
    # Large heaps sweep the same mirror a frontier at a time in set algebra,
    # chosen by size and shape (``repro.core.distance``), not by an option.
    # Byte-identical trace results; False selects the legacy kernel (twin
    # runs, debugging).
    flat_kernel: bool = True
    # Exponential-backoff re-initiation of timed-out back traces: when a
    # trace completes Live only because some frame or outcome timed out
    # (section 4.6's conservative assumption), re-tracing the same root
    # immediately would usually hit the same fault.  The initiator instead
    # refuses re-initiation from that root for ``backtrace_retry_backoff``
    # (default: ``backtrace_timeout``), doubling per consecutive
    # timeout-assumed Live up to ``backtrace_retry_backoff_cap`` (default:
    # 8x the base).  Any grounded verdict resets the backoff.
    backtrace_retry_backoff: Optional[float] = None
    backtrace_retry_backoff_cap: Optional[float] = None
    # Termination backend (GcConfig.collector == "termination"): a trial
    # whose credit has not fully returned after this long is presumed stuck
    # on a lost message, crash, or partition and is aborted (safe -- an
    # aborted trial collects nothing; a later trial retries).  None
    # inherits ``backtrace_timeout`` so fault-plan sweeps tune one knob.
    termination_trial_timeout: Optional[float] = None
    # Re-initiation back-off after a trial finds its suspect live (or
    # aborts): without it the still-suspected inref would re-trigger an
    # identical trial every gc tick.  Doubles per consecutive live/aborted
    # result, capped at 8x.  None inherits ``effective_retry_backoff``.
    termination_retry_backoff: Optional[float] = None

    def __post_init__(self) -> None:
        if not isinstance(self.collector, str) or not self.collector:
            raise ConfigError("collector must be a non-empty backend name")
        if self.suspicion_threshold < 1:
            raise ConfigError("suspicion_threshold must be >= 1")
        if self.assumed_cycle_length < 1:
            raise ConfigError("assumed_cycle_length must be >= 1")
        if self.back_threshold_increment < 1:
            raise ConfigError("back_threshold_increment must be >= 1")
        if self.local_trace_period <= 0:
            raise ConfigError("local_trace_period must be > 0")
        if self.local_trace_period_jitter < 0:
            raise ConfigError("local_trace_period_jitter must be >= 0")
        if self.local_trace_duration < 0:
            raise ConfigError("local_trace_duration must be >= 0")
        if self.local_trace_duration >= self.local_trace_period:
            raise ConfigError("local_trace_duration must be < local_trace_period")
        if self.backtrace_timeout <= 0:
            raise ConfigError("backtrace_timeout must be > 0")
        if self.full_update_period < 1:
            raise ConfigError("full_update_period must be >= 1")
        if self.full_trace_every_n < 1:
            raise ConfigError("full_trace_every_n must be >= 1")
        if self.backtrace_cache_ttl_ticks < 1:
            raise ConfigError("backtrace_cache_ttl_ticks must be >= 1")
        if self.max_traces_per_trigger_check < 1:
            raise ConfigError("max_traces_per_trigger_check must be >= 1")
        if self.defer_delay <= 0:
            raise ConfigError("defer_delay must be > 0")
        if self.defer_messages and self.defer_delay * 4 > self.backtrace_timeout:
            raise ConfigError(
                "defer_delay must be well under backtrace_timeout "
                "(deferred calls must not look like lost ones)"
            )
        if self.backinfo_algorithm not in ("bottomup", "independent"):
            raise ConfigError(
                "backinfo_algorithm must be 'bottomup' or 'independent', "
                f"got {self.backinfo_algorithm!r}"
            )
        if self.update_retransmit_timeout <= 0:
            raise ConfigError("update_retransmit_timeout must be > 0")
        if self.update_retransmit_limit < 0:
            raise ConfigError("update_retransmit_limit must be >= 0")
        if (
            self.backtrace_retry_backoff is not None
            and self.backtrace_retry_backoff <= 0
        ):
            raise ConfigError("backtrace_retry_backoff must be > 0")
        if (
            self.backtrace_retry_backoff_cap is not None
            and self.backtrace_retry_backoff_cap < (
                self.backtrace_retry_backoff or 0.0
            )
        ):
            raise ConfigError(
                "backtrace_retry_backoff_cap must be >= backtrace_retry_backoff"
            )
        if (
            self.termination_trial_timeout is not None
            and self.termination_trial_timeout <= 0
        ):
            raise ConfigError("termination_trial_timeout must be > 0")
        if (
            self.termination_retry_backoff is not None
            and self.termination_retry_backoff <= 0
        ):
            raise ConfigError("termination_retry_backoff must be > 0")

    @property
    def initial_back_threshold(self) -> int:
        """T2 = T + L, the distance at which a first back trace triggers."""
        return self.suspicion_threshold + self.assumed_cycle_length

    @property
    def effective_retry_backoff(self) -> float:
        """Base back-off delay for timeout-assumed-Live trace re-initiation."""
        if self.backtrace_retry_backoff is not None:
            return self.backtrace_retry_backoff
        return self.backtrace_timeout

    @property
    def effective_retry_backoff_cap(self) -> float:
        if self.backtrace_retry_backoff_cap is not None:
            return self.backtrace_retry_backoff_cap
        return 8.0 * self.effective_retry_backoff

    @property
    def effective_trial_timeout(self) -> float:
        """Credit-recovery deadline for one termination-backend trial."""
        if self.termination_trial_timeout is not None:
            return self.termination_trial_timeout
        return self.backtrace_timeout

    @property
    def effective_trial_backoff(self) -> float:
        """Base re-initiation back-off after a live or aborted trial."""
        if self.termination_retry_backoff is not None:
            return self.termination_retry_backoff
        return self.effective_retry_backoff


@dataclass(frozen=True)
class SimulationConfig:
    """Top-level bundle handed to :class:`repro.sim.Simulation`.

    ``parallel_workers`` > 1 opts a run into the sharded parallel engine
    (:class:`repro.sim.parallel.ParallelSimulation`): sites are partitioned
    across that many worker processes, each running its own scheduler over
    its shard's events, synchronized by conservative lookahead windows at
    least ``network.min_latency`` wide.  ``parallel_workers == 1`` (the default)
    is the plain sequential engine, byte-identical to the historical
    behaviour.  ``shard_policy`` chooses how sites map to workers:
    ``"contiguous"`` slices the sorted site list into equal runs (keeps
    neighbouring sites together, fewer cross-shard messages for ring-ish
    topologies); ``"round_robin"`` deals sites out cyclically (balances
    heterogeneous load).
    """

    seed: int = 0
    network: NetworkConfig = field(default_factory=NetworkConfig)
    gc: GcConfig = field(default_factory=GcConfig)
    parallel_workers: int = 1
    shard_policy: str = "contiguous"

    def __post_init__(self) -> None:
        if not isinstance(self.seed, int):
            raise ConfigError("seed must be an int")
        if not isinstance(self.parallel_workers, int) or self.parallel_workers < 1:
            raise ConfigError("parallel_workers must be an int >= 1")
        if self.shard_policy not in ("contiguous", "round_robin"):
            raise ConfigError(
                "shard_policy must be 'contiguous' or 'round_robin', "
                f"got {self.shard_policy!r}"
            )
