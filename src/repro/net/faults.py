"""Declarative fault injection for the simulated network (section 4.6).

The paper's fault-tolerance argument is that back tracing and reference
listing stay *safe* under lost and duplicated messages and crashed sites,
with liveness restored by retries once the faults heal.  This module makes
that claim exercisable: a :class:`FaultPlan` describes loss, duplication and
reordering-burst windows (per link or global) plus crash/recover and
partition schedules, and the :class:`~repro.net.network.Network` consults it
on every send.

Determinism and shard safety: all fault randomness is drawn from dedicated
per-ordered-pair RNG streams (``fault:{src}->{dst}``), never from the latency
streams.  A run with ``fault_plan=None`` therefore draws *zero* fault
randomness and is byte-identical to the historical behaviour, and a sharded
parallel run draws exactly the sequential run's values (each stream depends
only on the sender's own send order -- the same argument as
``NetworkConfig.pair_rng_streams``).

Reordering note: an extra delay is added *before* the per-pair FIFO clamp,
so a reorder burst shuffles messages across different links and against
timers but never violates the paper's assumption R1 (per-pair in-order
delivery).  Disable ``fifo_per_pair`` to exercise true per-pair reordering.

Crash and partition windows are *schedules*, not send-time rules: the driver
(the case runner in :mod:`repro.harness.cases`, or any experiment loop)
applies them via :meth:`FaultPlan.schedule_edges` by calling
``site.crash()`` / ``site.recover()`` / ``sim.partition()`` at the listed
times.  This keeps the network layer free of global coordination, which is
what lets fault plans run unchanged on the sharded parallel engine (where
the coordinator broadcasts crash/recover/partition/heal to its workers).
"""

from __future__ import annotations

import random
from dataclasses import asdict, dataclass, replace
from typing import FrozenSet, List, Optional, Tuple

from ..errors import ConfigError
from ..ids import SiteId

_INF = float("inf")


def _window_contains(start: float, end: Optional[float], now: float) -> bool:
    return start <= now < (end if end is not None else _INF)


@dataclass(frozen=True)
class LinkFault:
    """One fault rule on a set of links over one time window.

    ``src``/``dst`` of ``None`` match any sender/receiver (a global rule).
    ``end`` of ``None`` means the rule never heals (a case that checks
    eventual collection flags it: collection needs a heal point).

    - ``loss``: probability an original message is dropped at send time.
    - ``duplicate_probability`` / ``duplicate_copies``: chance that a sent
      message is also delivered ``duplicate_copies`` extra times, each copy
      lagging the original by up to ``duplicate_lag``.
    - ``reorder_probability`` / ``reorder_delay``: chance a message is held
      back by an extra ``uniform(0, reorder_delay)`` before the FIFO clamp
      (cross-link and against-timer reordering; see module docstring).
    """

    start: float = 0.0
    end: Optional[float] = None
    src: Optional[SiteId] = None
    dst: Optional[SiteId] = None
    loss: float = 0.0
    duplicate_probability: float = 0.0
    duplicate_copies: int = 1
    duplicate_lag: float = 0.0
    reorder_probability: float = 0.0
    reorder_delay: float = 0.0

    def __post_init__(self) -> None:
        if self.start < 0:
            raise ConfigError("LinkFault.start must be >= 0")
        if self.end is not None and self.end <= self.start:
            raise ConfigError("LinkFault.end must be > start")
        for name in ("loss", "duplicate_probability", "reorder_probability"):
            value = getattr(self, name)
            if not 0.0 <= value <= 1.0:
                raise ConfigError(f"LinkFault.{name} must be in [0, 1]")
        if self.duplicate_copies < 1:
            raise ConfigError("LinkFault.duplicate_copies must be >= 1")
        if self.duplicate_lag < 0:
            raise ConfigError("LinkFault.duplicate_lag must be >= 0")
        if self.reorder_delay < 0:
            raise ConfigError("LinkFault.reorder_delay must be >= 0")

    def matches(self, now: float, src: SiteId, dst: SiteId) -> bool:
        if not _window_contains(self.start, self.end, now):
            return False
        if self.src is not None and self.src != src:
            return False
        if self.dst is not None and self.dst != dst:
            return False
        return True


@dataclass(frozen=True)
class SiteCrash:
    """Crash ``site`` at time ``at``; recover at ``recover_at`` (None = never)."""

    site: SiteId
    at: float
    recover_at: Optional[float] = None

    def __post_init__(self) -> None:
        if self.at < 0:
            raise ConfigError("SiteCrash.at must be >= 0")
        if self.recover_at is not None and self.recover_at <= self.at:
            raise ConfigError("SiteCrash.recover_at must be > at")


@dataclass(frozen=True)
class PartitionWindow:
    """Split the network into ``groups`` during [at, heal_at)."""

    groups: Tuple[FrozenSet[SiteId], ...]
    at: float
    heal_at: Optional[float] = None

    def __post_init__(self) -> None:
        if not self.groups:
            raise ConfigError("PartitionWindow needs at least one group")
        if self.at < 0:
            raise ConfigError("PartitionWindow.at must be >= 0")
        if self.heal_at is not None and self.heal_at <= self.at:
            raise ConfigError("PartitionWindow.heal_at must be > at")


@dataclass(frozen=True)
class SendFate:
    """The network-visible outcome of one send under a plan."""

    drop: bool = False
    extra_delay: float = 0.0
    #: (lag, ...) one entry per duplicate copy to inject after the original.
    duplicate_lags: Tuple[float, ...] = ()


#: Shared immutable fates for the two overwhelmingly common outcomes, so the
#: per-send hot path allocates nothing when a message sails through clean or
#: is dropped outright.
CLEAN_FATE = SendFate()
DROP_FATE = SendFate(drop=True)


@dataclass(frozen=True)
class FaultPlan:
    """A declarative, deterministic schedule of network faults.

    Compose with the class-method constructors and :meth:`merge`::

        plan = FaultPlan.loss(0.2, end=1000.0).merge(
            FaultPlan.duplication(0.15, end=1000.0),
            FaultPlan.reorder_burst(0.3, delay=25.0, start=200.0, end=600.0),
        )
    """

    links: Tuple[LinkFault, ...] = ()
    crashes: Tuple[SiteCrash, ...] = ()
    partitions: Tuple[PartitionWindow, ...] = ()
    name: str = "faults"

    # -- constructors -------------------------------------------------------

    @classmethod
    def loss(
        cls,
        probability: float,
        start: float = 0.0,
        end: Optional[float] = None,
        src: Optional[SiteId] = None,
        dst: Optional[SiteId] = None,
    ) -> "FaultPlan":
        return cls(
            links=(LinkFault(start=start, end=end, src=src, dst=dst, loss=probability),),
            name=f"loss{int(probability * 100)}",
        )

    @classmethod
    def duplication(
        cls,
        probability: float,
        copies: int = 1,
        lag: float = 0.0,
        start: float = 0.0,
        end: Optional[float] = None,
    ) -> "FaultPlan":
        return cls(
            links=(
                LinkFault(
                    start=start,
                    end=end,
                    duplicate_probability=probability,
                    duplicate_copies=copies,
                    duplicate_lag=lag,
                ),
            ),
            name=f"dup{int(probability * 100)}",
        )

    @classmethod
    def reorder_burst(
        cls,
        probability: float,
        delay: float,
        start: float = 0.0,
        end: Optional[float] = None,
    ) -> "FaultPlan":
        return cls(
            links=(
                LinkFault(
                    start=start,
                    end=end,
                    reorder_probability=probability,
                    reorder_delay=delay,
                ),
            ),
            name="reorder",
        )

    @classmethod
    def crash_window(
        cls, site: SiteId, at: float, recover_at: Optional[float]
    ) -> "FaultPlan":
        return cls(crashes=(SiteCrash(site=site, at=at, recover_at=recover_at),),
                   name=f"crash:{site}")

    @classmethod
    def partition_window(
        cls, groups, at: float, heal_at: Optional[float]
    ) -> "FaultPlan":
        frozen = tuple(frozenset(group) for group in groups)
        return cls(
            partitions=(PartitionWindow(groups=frozen, at=at, heal_at=heal_at),),
            name="partition",
        )

    def merge(self, *others: "FaultPlan") -> "FaultPlan":
        """Union of this plan's rules with every other plan's."""
        links, crashes, partitions = list(self.links), list(self.crashes), list(self.partitions)
        names = [self.name]
        for other in others:
            links.extend(other.links)
            crashes.extend(other.crashes)
            partitions.extend(other.partitions)
            names.append(other.name)
        return FaultPlan(
            links=tuple(links),
            crashes=tuple(crashes),
            partitions=tuple(partitions),
            name="+".join(names),
        )

    def named(self, name: str) -> "FaultPlan":
        return replace(self, name=name)

    # -- JSON ---------------------------------------------------------------

    def to_json(self) -> dict:
        """Plain JSON data: partition groups as sorted lists, ``None`` ends
        as ``null``; :meth:`from_json` rebuilds an equal plan."""
        return {
            "name": self.name,
            "links": [asdict(rule) for rule in self.links],
            "crashes": [asdict(crash) for crash in self.crashes],
            "partitions": [
                {**asdict(window), "groups": [sorted(group) for group in window.groups]}
                for window in self.partitions
            ],
        }

    @classmethod
    def from_json(cls, data: dict) -> "FaultPlan":
        return cls(
            links=tuple(LinkFault(**rule) for rule in data["links"]),
            crashes=tuple(SiteCrash(**crash) for crash in data["crashes"]),
            partitions=tuple(
                PartitionWindow(**{**window, "groups": tuple(map(frozenset, window["groups"]))})
                for window in data["partitions"]
            ),
            name=data["name"],
        )

    # -- send-time consultation --------------------------------------------

    def rules_for(self, src: SiteId, dst: SiteId) -> Tuple[LinkFault, ...]:
        """The link rules that can ever apply to the ordered pair, in rule
        order.

        Time windows are *not* evaluated here -- only the src/dst match,
        which is constant for the pair's lifetime -- so the result can be
        cached on a per-link struct and handed back to :meth:`roll` as its
        ``rules`` argument.  Because rules that never match a pair draw no
        randomness in :meth:`roll`, prefiltering preserves the per-pair draw
        sequence exactly.
        """
        return tuple(
            rule
            for rule in self.links
            if (rule.src is None or rule.src == src)
            and (rule.dst is None or rule.dst == dst)
        )

    def roll(
        self,
        now: float,
        src: SiteId,
        dst: SiteId,
        rng: random.Random,
        rules: Optional[Tuple[LinkFault, ...]] = None,
    ) -> SendFate:
        """Decide the fate of one send.  Draws are ordered rule-by-rule so
        the sequence depends only on the plan and the sender's send order
        (the shard-safety requirement).

        ``rules`` may carry a :meth:`rules_for` prefilter of ``self.links``
        for the pair; the outcome and draw order are identical either way.
        """
        extra_delay = 0.0
        duplicate_lags: List[float] = []
        for rule in (self.links if rules is None else rules):
            if not rule.matches(now, src, dst):
                continue
            if rule.loss > 0.0 and rng.random() < rule.loss:
                return DROP_FATE
            if rule.reorder_probability > 0.0 and rng.random() < rule.reorder_probability:
                extra_delay += rng.uniform(0.0, rule.reorder_delay)
            if (
                rule.duplicate_probability > 0.0
                and rng.random() < rule.duplicate_probability
            ):
                for _ in range(rule.duplicate_copies):
                    lag = rng.uniform(0.0, rule.duplicate_lag) if rule.duplicate_lag else 0.0
                    duplicate_lags.append(lag)
        if extra_delay == 0.0 and not duplicate_lags:
            return CLEAN_FATE
        return SendFate(extra_delay=extra_delay, duplicate_lags=tuple(duplicate_lags))

    # -- driver-side schedules ---------------------------------------------

    def schedule_edges(self) -> List[Tuple[float, str, object]]:
        """Time-sorted (time, action, data) driver actions.

        Actions: ``("crash", site)``, ``("recover", site)``,
        ``("partition", groups)``, ``("heal_partition", None)``.  The driver
        applies each edge when simulated time reaches it.
        """
        edges: List[Tuple[float, str, object]] = []
        for crash in self.crashes:
            edges.append((crash.at, "crash", crash.site))
            if crash.recover_at is not None:
                edges.append((crash.recover_at, "recover", crash.site))
        for partition in self.partitions:
            edges.append((partition.at, "partition", partition.groups))
            if partition.heal_at is not None:
                edges.append((partition.heal_at, "heal_partition", None))
        # Ties break on partition groups as sorted lists: a frozenset's str()
        # follows its hash order, which changes with the process's hash seed.
        edges.sort(key=lambda edge: (edge[0], edge[1], str(
            [sorted(group) for group in edge[2]] if edge[1] == "partition" else edge[2]
        )))
        return edges

    @property
    def link_window(self) -> Optional[Tuple[float, float]]:
        """(earliest start, latest end) over the link rules, None if no links.

        The network checks this before :meth:`roll` on every send, so a plan
        whose windows are all in the past (or future) costs one comparison
        per message instead of a walk over the rule list.
        """
        if not self.links:
            return None
        start = min(rule.start for rule in self.links)
        end = max(
            _INF if rule.end is None else rule.end for rule in self.links
        )
        return (start, end)

    @property
    def healed_at(self) -> float:
        """Earliest time after which no rule is active (inf if never)."""
        bound = 0.0
        for rule in self.links:
            bound = max(bound, _INF if rule.end is None else rule.end)
        for crash in self.crashes:
            bound = max(bound, _INF if crash.recover_at is None else crash.recover_at)
        for partition in self.partitions:
            bound = max(bound, _INF if partition.heal_at is None else partition.heal_at)
        return bound

    @property
    def is_empty(self) -> bool:
        return not (self.links or self.crashes or self.partitions)
