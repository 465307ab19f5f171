"""Configuration dataclasses for the simulator and the collectors.

Configuration is split by subsystem.  Every field is a choice the paper
itself draws (a threshold, a period, a timeout, a section 5 algorithm, a
counterfactual of its figures) or a section 3 / 4.6 policy some experiment
sweeps.  The mechanisms that merely make the collector cheaper have no
switch, and hardening constants no experiment sweeps (the update channel's
retransmission timeout and give-up limit, in :mod:`repro.site.site`) are
not fields.  All classes validate on construction and are immutable; derive
variants with :func:`dataclasses.replace`.
"""

from __future__ import annotations

from dataclasses import dataclass, field, fields

from .errors import ConfigError

#: The distributed cycle-collection backends ``GcConfig.collector`` names.
COLLECTORS = ("backtrace", "null", "termination")


@dataclass(frozen=True)
class NetworkConfig:
    """Parameters of the simulated message-passing network.

    The safety argument of the paper (section 6.4, relation R1) assumes
    in-order delivery between each pair of sites, which matches TCP-like
    transports; ``fifo_per_pair`` therefore defaults to True.  Setting it to
    False exercises the conservative timeout paths.  Loss, duplication and
    reordering are rules of a :class:`~repro.net.faults.FaultPlan` (a lossy
    network is ``FaultPlan.loss(p)``), never network parameters.
    """

    min_latency: float = 1.0
    max_latency: float = 5.0
    fifo_per_pair: bool = True
    # Every ordered site pair draws latency from its own RNG stream
    # (repro.net.network), on every engine; this field only admits that.
    # It survives for callers that still name it, and False raises.
    pair_rng_streams: bool = True

    def __post_init__(self) -> None:
        if not self.pair_rng_streams:
            raise ConfigError(
                "pair_rng_streams=False is gone: every link draws from its own stream"
            )
        if self.min_latency < 0:
            raise ConfigError("min_latency must be >= 0")
        if self.max_latency < self.min_latency:
            raise ConfigError("max_latency must be >= min_latency")


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
      outcome; expiry conservatively decides Live (section 4.6).  It is also
      the base of the initiator's re-initiation back-off after such a
      timeout-assumed Live (doubling per consecutive one, capped at 8x, reset
      by any grounded verdict) and, for the ``"termination"`` backend, the
      credit-recovery deadline and back-off base of a trial.
    - ``collector="null"`` and ``enable_transfer_barrier=False`` are the
      counterfactuals of the figures: plain local tracing (Figure 1's
      uncollected cycle) and the unsafe no-barrier system (Figure 5's lost
      object).  Production configurations run ``"backtrace"`` with the
      barrier on.
    """

    # Distributed cycle-collection backend, one of :data:`COLLECTORS`
    # (:mod:`repro.core.collector`).  "backtrace" is the paper's back tracer;
    # "termination" the decentralized trial-deletion-with-termination-
    # detection rival used for differential testing; "null" plain local
    # tracing (Figure 1's counterfactual, and what the section 7 baseline
    # drivers run over).
    collector: str = "backtrace"
    suspicion_threshold: int = 4
    assumed_cycle_length: int = 8
    back_threshold_increment: int = 4
    local_trace_period: float = 100.0
    local_trace_period_jitter: float = 10.0
    local_trace_duration: float = 0.0
    backtrace_timeout: float = 500.0
    backinfo_algorithm: str = "bottomup"
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
    # Local traces are incremental: sites track mutation epochs on the heap
    # and the ioref tables, remember the epochs of the last committed trace,
    # and skip a gc tick when none moved since.  ``full_trace_every_n`` is
    # the safety net: at most that many consecutive ticks may go by without
    # a full trace (skips and distance-only retraces alike) before one is
    # forced, bounding the lifetime of any state a missed invalidation could
    # leave stale.  The forced fulls also carry the periodic full refresh
    # (``full_update_period``) on quiet sites.
    full_trace_every_n: int = 8
    # Every n-th full local trace sends each peer the complete list of the
    # outrefs held toward it (:class:`repro.gc.update.UpdatePayload`) instead
    # of a delta.  Update messages are idempotent state transfers (the
    # fault-tolerant reference listing of [ML94]), so this bounded refresh
    # re-anchors any peer regardless of what was lost before it.
    full_update_period: int = 4

    def __post_init__(self) -> None:
        if self.collector not in COLLECTORS:
            raise ConfigError(
                "collector must be 'backtrace', 'null' or 'termination', "
                f"got {self.collector!r}"
            )
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

    @property
    def initial_back_threshold(self) -> int:
        """T2 = T + L, the distance at which a first back trace triggers."""
        return self.suspicion_threshold + self.assumed_cycle_length


def _changed(config) -> dict:
    """``config``'s fields whose values differ from a default instance's."""
    default = type(config)()
    return {
        f.name: getattr(config, f.name)
        for f in fields(config)
        if getattr(config, f.name) != getattr(default, f.name)
    }


@dataclass(frozen=True)
class SimulationConfig:
    """Top-level bundle handed to :class:`repro.sim.Simulation`.

    ``parallel_workers`` > 1 opts a run into the sharded parallel engine
    (:class:`repro.sim.parallel.ParallelSimulation`): sites are partitioned
    across that many worker processes, each running its own scheduler over
    its shard's events, synchronized by conservative lookahead windows at
    least ``network.min_latency`` wide.  ``parallel_workers == 1`` (the default)
    is the plain sequential engine.  The worker count changes no run: both
    engines produce the same heaps, counters and trace outcomes.
    """

    seed: int = 0
    network: NetworkConfig = field(default_factory=NetworkConfig)
    gc: GcConfig = field(default_factory=GcConfig)
    parallel_workers: int = 1

    def __post_init__(self) -> None:
        if not isinstance(self.seed, int):
            raise ConfigError("seed must be an int")
        if not isinstance(self.parallel_workers, int) or self.parallel_workers < 1:
            raise ConfigError("parallel_workers must be an int >= 1")

    def to_json(self) -> dict:
        """Plain JSON data naming only the fields that differ from their
        defaults; :meth:`from_json` rebuilds an equal config.  A case file
        thus survives the removal of any field it leaves at its default."""
        data = _changed(self)
        for name in ("network", "gc"):
            if name in data:
                data[name] = _changed(data[name])
        return data

    @classmethod
    def from_json(cls, data: dict) -> "SimulationConfig":
        """Absent keys take their defaults; unknown ones raise TypeError."""
        network, gc = NetworkConfig(**data.get("network", {})), GcConfig(**data.get("gc", {}))
        return cls(**{**data, "network": network, "gc": gc})
